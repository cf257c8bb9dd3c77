import logging
import random
import re
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graveropt.core import IntMatrix, canonical_rep
from graveropt.graver import OracleBudgetError, box_kernel_vectors, compute_graver
from graveropt.objective import (
    DiscreteConvexFn,
    GeometricAbs,
    PiecewiseTable,
    ScaledAbs,
    ScaledEvenPower,
    SeparableObjective,
    Term,
    Zero,
    linear_objective,
)
from graveropt import augment, testset
from graveropt.augment import (
    WALK_MEMO_SIZE,
    CipInstance,
    InfeasibleStartError,
    SolveStatus,
    brute_force_optimum,
    check_compatible,
    find_improving,
    instance_test_set,
    line_search,
    parse_instance,
    solve,
    step_limits,
)
from graveropt.cli import _slack_view
from graveropt.testset import (
    BOX_CANDIDATE_LIMIT,
    FAMILY_CACHE_SIZE,
    TestSet,
    box_test_set,
    compute_test_set,
    format_test_set,
    parse_test_set,
)
from tests import helpers
from tests.conftest import clear_box_caches, two_square_instance
from tests.helpers import (binary_split_minimum, find_feasible_point, format_instance,
                           path_difference_instance, reference_walk, time_bound)


def pair_test_set():
    return compute_test_set(IntMatrix.zero(0, 2),
                            IntMatrix.from_rows([[1, 1], [1, -1]]))


def axis_only():
    return TestSet(2, frozenset({(1, 0), (0, 1)}))


FREE2 = IntMatrix.zero(0, 2)


def linear_instance():
    return CipInstance(FREE2, (), None, linear_objective([1, 1]))


def limits(inst, directions, z, cap=10):
    """step_limits over the scan of a set of the given directions, either
    sign, as a dict from signed direction to limit."""
    t_set = TestSet(inst.n, frozenset(map(canonical_rep, directions)))
    return dict(zip(t_set.scan, step_limits(inst, t_set, z, cap).tolist()))


class TestStepLimits:
    def test_lower_bound_limits(self):
        got = limits(linear_instance(), {(1, 0), (1, 1)}, (3, 2))
        assert got[(1, 0)] == 3
        assert got[(1, 1)] == 2

    def test_unbounded_direction(self):
        # no bound limits the ray: cap + 1
        assert limits(linear_instance(), {(1, 0)}, (3, 2))[(-1, 0)] == 11

    def test_upper_bound_limits(self):
        inst = CipInstance(FREE2, (), (5, 5), linear_objective([1, 1]))
        assert limits(inst, {(1, 0)}, (3, 2))[(-1, 0)] == 2

    def test_rows_in_scan_order(self):
        inst = CipInstance(FREE2, (), (5, 5), linear_objective([1, 1]))
        t_set = TestSet(2, frozenset({(1, 0), (1, -2)}))
        # sorted (1,-2) before (1,0), each followed by its negative:
        # min(3 // 1, (2 - 5) // -2), min((3 - 5) // -1, 2 // 2), 3 // 1,
        # (3 - 5) // -1
        assert step_limits(inst, t_set, (3, 2), 10).tolist() == [1, 1, 3, 2]

    def test_cap_bounds_every_limit(self):
        assert limits(linear_instance(), {(1, 0)}, (30, 2), cap=4) == {(1, 0): 5,
                                                                        (-1, 0): 5}


def search(inst, z, t, value, cap=10):
    """line_search from z along -t up to its step limit."""
    return line_search(z, t, value, limits(inst, {t}, z, cap)[t], inst.objective.value)


class TestLineSearch:
    def test_linear_slides_to_bound(self):
        assert search(linear_instance(), (3, 2), (1, 0), 5) == (3, 2)

    def test_quadratic_stops_at_minimum(self, square_pair):
        assert search(square_pair, (2, 2), (1, 1), 16) == (2, 0)

    def test_infeasible_unit_step(self):
        assert limits(linear_instance(), {(1, 0)}, (0, 0))[(1, 0)] == 0
        assert search(linear_instance(), (0, 0), (1, 0), 0) is None

    def test_non_improving_step(self, square_pair):
        assert search(square_pair, (1, 1), (-1, -1), 4) is None

    def test_descending_ray_hits_cap(self):
        # the ray descends to the bound at 10^7; a limit of cap + 1 = 1001
        # returns that step count, the mark of a ray still descending
        inst = CipInstance(FREE2, (), None, linear_objective([1, 1]))
        z, t = (10 ** 7, 0), (1, 0)
        assert limits(inst, {t}, z, cap=1000)[t] == 1001
        assert search(inst, z, t, 10 ** 7, cap=1000) == (1001, 10 ** 7 - 1001)

    def test_minimizer_exactly_at_cap(self):
        # (x - 3)^2 from x = 0 along +1: step 4 no longer improves, so
        # cap 3 is enough; at cap 2 the search returns 3 = cap + 1, the
        # mark of a ray still descending
        inst = CipInstance(IntMatrix.zero(0, 1), (), None, SeparableObjective(
            1, (Term(ScaledEvenPower(1, 2), (1,), -3),), (Fraction(0),)))
        for cap in (3, 2):
            assert limits(inst, {(1,)}, (0,), cap=cap)[(-1,)] == cap + 1
            assert search(inst, (0,), (-1,), 9, cap=cap) == (3, 0)


class TestFindImproving:
    def test_coupling_direction_found(self, square_pair):
        t = pair_test_set()
        assert find_improving(square_pair, t, (1, 1), 4) == ((1, 1), 1, 0)

    def test_axis_set_stalls(self, square_pair):
        assert find_improving(square_pair, axis_only(), (1, 1), 4) is None

    def test_optimum_returns_none(self, square_pair):
        assert find_improving(square_pair, pair_test_set(), (0, 0), 0) is None

    def test_infeasible_start_raises(self, square_pair):
        with pytest.raises(InfeasibleStartError):
            find_improving(square_pair, pair_test_set(), (-1, 0), 5)

    def test_best_improving_picks_deepest(self):
        # from (2,3): sliding along (0,1) lands at (2,0) value 6, sliding
        # along (1,1) lands at (0,1) value 1; best-improving takes the latter
        inst = CipInstance(FREE2, (), None, linear_objective([3, 1]))
        t = TestSet(2, frozenset({(0, 1), (1, 1)}))
        first = find_improving(inst, t, (2, 3), 9)
        assert first == ((0, 1), 3, 6)
        best = find_improving(inst, t, (2, 3), 9, best=True)
        assert best == ((1, 1), 2, 1)

    @pytest.mark.parametrize("best", [False, True])
    def test_optimum_evaluates_once_per_feasible_direction(self, monkeypatch, best):
        # (x+y-4)^2 + 4(x-y)^2 is least at (2,2); the bound x <= 2 makes
        # the unit step infeasible along three of the eight signed
        # directions, and each other one is tried at its unit step only
        obj = SeparableObjective(2, (
            Term(ScaledEvenPower(1, 2), (1, 1), -4),
            Term(ScaledEvenPower(4, 2), (1, -1), 0),
        ), (Fraction(0), Fraction(0)))
        inst = CipInstance(FREE2, (), (2, 3), obj)
        t_set = pair_test_set()
        z = (2, 2)
        feasible = [t for d in t_set.directions for t in (d, tuple(-x for x in d))
                    if inst.feasible(tuple(a - b for a, b in zip(z, t)))]
        assert len(feasible) == 5
        calls = []
        value = SeparableObjective.value
        monkeypatch.setattr(SeparableObjective, "value",
                            lambda self, p: calls.append(tuple(p)) or value(self, p))
        assert find_improving(inst, t_set, z, 0, best=best) is None
        assert len(calls) == len(feasible)
        assert sorted(calls) == sorted(tuple(a - b for a, b in zip(z, t)) for t in feasible)


class TestSolve:
    def test_reaches_origin(self, square_pair):
        report = solve(square_pair, pair_test_set(), (5, 3))
        assert report.status is SolveStatus.OPTIMAL
        assert report.optimum == (0, 0)
        assert report.value == 0

    def test_truncated_set_stops_short(self, square_pair):
        report = solve(square_pair, axis_only(), (1, 1))
        assert report.status is SolveStatus.OPTIMAL
        assert report.optimum == (1, 1)
        assert report.value == 4

    def test_linear_case(self):
        report = solve(linear_instance(), TestSet(2, frozenset({(1, 0), (0, 1)})),
                       (3, 2))
        assert report.optimum == (0, 0)
        assert report.value == 0

    def test_steps_strictly_decrease(self, square_pair):
        report = solve(square_pair, pair_test_set(), (5, 3))
        values = [s.value_after for s in report.steps]
        assert values == sorted(values, reverse=True)
        assert len(set(values)) == len(values)
        assert values[-1] == report.value

    def test_geometric_objective_matches_brute_force(self):
        obj = SeparableObjective(2, (
            Term(GeometricAbs(3), (1, 1), -3),
            Term(ScaledEvenPower(4, 6), (1, -1), 2),
        ), (Fraction(2), Fraction(-1)))
        inst = CipInstance(FREE2, (), None, obj)
        report = solve(inst, pair_test_set(), (5, 0))
        z, val = brute_force_optimum(inst, (10, 10))
        assert report.value == val
        assert report.optimum == z

    def test_unbounded_instance_reports_suspicion(self):
        inst = CipInstance(FREE2, (), None, linear_objective([-1, 0]))
        report = solve(inst, TestSet(2, frozenset({(1, 0)})), (0, 0), cap=50)
        assert report.status is SolveStatus.UNBOUNDED_SUSPECTED

    def test_infeasible_start(self, square_pair):
        with pytest.raises(InfeasibleStartError):
            solve(square_pair, pair_test_set(), (0, 5, 5))

    def test_error_in_an_evaluation_propagates(self):
        # NotImplementedError is a RuntimeError; it is the piece's fault,
        # not a sign of an unbounded walk, and must leave solve as raised
        @dataclass(frozen=True)
        class ZeroOnly(DiscreteConvexFn):
            def value(self, x):
                if x:
                    raise NotImplementedError("ZeroOnly: only 0")
                return Fraction(0)

        a = IntMatrix.from_rows([[1, 1]])
        inst = CipInstance(a, (4,), None, SeparableObjective(
            2, (Term(ZeroOnly(), (1, -1), 0),), (Fraction(1), Fraction(0))))
        with pytest.raises(NotImplementedError, match="only 0"):
            solve(inst, instance_test_set(inst), (2, 2))

    def test_graver_basis_serves_linear_objectives(self):
        # the Graver basis of A is the test set of the family with no
        # composition rows: the same walk as instance_test_set, and
        # refused once a term composes a row
        rng = random.Random(59)
        for _ in range(20):
            n = rng.randint(2, 4)
            a = IntMatrix.from_rows([[rng.randint(-2, 2) for _ in range(n)]
                                     for _ in range(rng.randint(1, 2))], cols=n)
            z0 = tuple(rng.randint(0, 3) for _ in range(n))
            obj = linear_objective([rng.randint(0, 3) for _ in range(n)])
            inst = CipInstance(a, a.mat_vec(z0), None, obj)
            basis, family = compute_graver(a), instance_test_set(inst)
            assert basis == family
            for best in (False, True):
                assert solve(inst, basis, z0, best=best) == solve(inst, family, z0, best=best)
            row = tuple(rng.randint(1, 2) for _ in range(n))
            squared = CipInstance(a, inst.b, None, SeparableObjective(
                n, (Term(ScaledEvenPower(1, 2), row, 0),), obj.linear))
            with pytest.raises(ValueError, match="does not cover objective row"):
                solve(squared, basis, z0)

    @pytest.mark.parametrize("cap", [0, -3])
    def test_non_positive_cap_rejected(self, square_pair, cap):
        # a walk allowed no step would report a bounded instance as
        # suspected unbounded
        with pytest.raises(ValueError, match="step cap"):
            solve(square_pair, pair_test_set(), (5, 3), cap=cap)
        bounded = CipInstance(FREE2, (), (2, 2), square_pair.objective)
        with pytest.raises(ValueError, match="step cap"):
            solve(bounded, instance_test_set(bounded), (1, 1), cap=cap)


def plain_feasible(inst, z):
    """Whether z is feasible for inst, from a dot product of its own."""
    return (len(z) == inst.n and all(x >= 0 for x in z)
            and (inst.upper is None or all(x <= u for x, u in zip(z, inst.upper)))
            and all(sum(c * x for c, x in zip(row, z)) == bi
                    for row, bi in zip(inst.a.entries, inst.b)))


class TestFeasible:
    BIG = 1 << 64

    def test_big_integers_agree_with_a_plain_dot_product(self):
        big = self.BIG
        a = IntMatrix.from_rows([[big + 1, -3, 1], [1, big, -(big + 5)]])
        z = (big + 7, 2 * big + 1, big - 1)
        b = tuple(sum(c * x for c, x in zip(row, z)) for row in a.entries)
        upper = (2 * big, 3 * big, big)
        obj = linear_objective([0, 0, 0])
        inst = CipInstance(a, b, upper, obj)
        assert inst.feasible(z) and plain_feasible(inst, z)
        for i in range(2):
            off = CipInstance(a, b[:i] + (b[i] + 1,) + b[i + 1:], upper, obj)
            assert not off.feasible(z) and not plain_feasible(off, z)
        points = [z, (big + 8, 2 * big + 1, big - 1), (big + 7, 2 * big + 1, big),
                  (-1, 0, 0), z[:2], z + (0,)]
        for inst in (inst, CipInstance(a, b, None, obj)):
            for point in points:
                assert inst.feasible(point) == plain_feasible(inst, point)

    @pytest.mark.parametrize("best", [False, True])
    def test_direction_off_the_kernel_despite_provenance_raises(self, best):
        # the set claims to be the one of (A, C) but holds (1, 0), which
        # leaves Az = b; the walk takes it, and the next scan's
        # feasibility check stops the walk before it returns that point
        a = IntMatrix.from_rows([[1, 1]])
        obj = SeparableObjective(2, (Term(ScaledEvenPower(1, 2), (1, 0), 0),
                                     Term(ScaledEvenPower(10, 2), (0, 1), 0)),
                                 (Fraction(0),) * 2)
        inst = CipInstance(a, (2,), None, obj)
        lying = TestSet(2, frozenset({(1, -1), (1, 0)}),
                        provenance=(a, inst.objective.composition_matrix))
        check_compatible(inst, lying)
        with pytest.raises(InfeasibleStartError):
            solve(inst, lying, (2, 0), best=best)


class TestIntegerData:
    """b and upper are stored as exact ints: a float is refused, never
    truncated or compared."""

    def test_float_right_hand_side_refused(self):
        with pytest.raises(ValueError):
            CipInstance(IntMatrix.from_rows([[1, 1]]), (2.5,), None, linear_objective([1, 1]))

    def test_float_upper_refused(self):
        # kept, (2.5, 2.5) would become the box of the instance's test set
        with pytest.raises(ValueError):
            CipInstance(FREE2, (), (2.5, 2.5), linear_objective([1, 1]))

    def test_float_box_refused(self):
        # a direct caller's float bound would become the set's box
        with pytest.raises(ValueError):
            box_test_set(IntMatrix.zero(0, 2), IntMatrix.zero(0, 2), (2.5, 2.5))
        assert box_test_set(IntMatrix.zero(0, 2), IntMatrix.zero(0, 2), [2, 2]).box == (2, 2)

    def test_upper_as_a_list(self):
        inst = CipInstance(FREE2, (), [2, 3], linear_objective([1, 1]))
        assert inst.upper == (2, 3) and inst.feasible((2, 3)) and not inst.feasible((3, 0))
        t_set = instance_test_set(inst)
        assert t_set.box == (2, 3)
        assert solve(inst, t_set, (2, 3)).optimum == (0, 0)


class TestCompatibility:
    def test_first_missing_row_named(self):
        inst = CipInstance(FREE2, (), None, SeparableObjective(2, (
            Term(ScaledEvenPower(1, 2), (1, 1), 0),
            Term(ScaledEvenPower(1, 2), (2, 1), 0),
            Term(ScaledEvenPower(1, 2), (1, 2), 0)), (Fraction(0),) * 2))
        t = compute_test_set(FREE2, IntMatrix.from_rows([[1, 1]]))
        with pytest.raises(ValueError, match=r"^test set does not cover objective row \(2, 1\)$"):
            check_compatible(inst, t)

    def test_wrong_dimension_rejected(self, square_pair):
        with pytest.raises(ValueError):
            check_compatible(square_pair, TestSet(3, frozenset({(1, 0, 0)})))

    def test_foreign_constraint_matrix_rejected(self, square_pair):
        other = compute_test_set(IntMatrix.from_rows([[1, 1]]),
                                 IntMatrix.from_rows([[1, -1]]))
        with pytest.raises(ValueError):
            check_compatible(square_pair, other)

    def test_missing_objective_row_rejected(self):
        inst = CipInstance(FREE2, (), None, SeparableObjective(2, (
            Term(ScaledEvenPower(1, 2), (2, 1), 0),), (Fraction(0),) * 2))
        t = compute_test_set(FREE2, IntMatrix.from_rows([[1, 1]]))
        with pytest.raises(ValueError):
            check_compatible(inst, t)

    def test_box_set_refused_past_its_box(self):
        # cut down to the unit box, the set lacks (2, 0, 1), the only
        # improving step from 0 once the box is (4, 4, 4)
        a = IntMatrix.from_rows([[1, 1, -2]])
        sq = ScaledEvenPower(1, 2)
        obj = SeparableObjective(3, (Term(sq, (1, 0, 0), -2),
                                     Term(ScaledEvenPower(10, 2), (0, 1, 0), 0),
                                     Term(sq, (0, 0, 1), -1)), (Fraction(0),) * 3)
        t = instance_test_set(CipInstance(a, (0,), (1, 1, 1), obj))
        for upper in ((4, 4, 4), (1, 2, 1), None):
            with pytest.raises(ValueError, match="box"):
                solve(CipInstance(a, (0,), upper, obj), t, (0, 0, 0))
        assert t.box == (1, 1, 1)
        check_compatible(CipInstance(a, (0,), (1, 0, 1), obj), t)
        wide = CipInstance(a, (0,), (4, 4, 4), obj)
        report = solve(wide, instance_test_set(wide), (0, 0, 0))
        assert report.optimum == (2, 0, 1) and report.value == 0

    def test_box_set_refused_past_its_box_after_round_trip(self):
        # the unit-box set of the test above, written out and read back,
        # still refuses the (4, 4, 4) instance it would walk to (0, 0, 0)
        a = IntMatrix.from_rows([[1, 1, -2]])
        sq = ScaledEvenPower(1, 2)
        obj = SeparableObjective(3, (Term(sq, (1, 0, 0), -2),
                                     Term(ScaledEvenPower(10, 2), (0, 1, 0), 0),
                                     Term(sq, (0, 0, 1), -1)), (Fraction(0),) * 3)
        t = instance_test_set(CipInstance(a, (0,), (1, 1, 1), obj))
        back = parse_test_set(format_test_set(t))
        assert (back.directions, back.box) == (t.directions, (1, 1, 1))
        with pytest.raises(ValueError, match="box"):
            solve(CipInstance(a, (0,), (4, 4, 4), obj), back, (0, 0, 0))
        report = solve(CipInstance(a, (0,), (1, 0, 1), obj), back, (0, 0, 0))
        assert report == solve(CipInstance(a, (0,), (1, 0, 1), obj), t, (0, 0, 0))

    def test_anonymous_sets_trusted(self, square_pair):
        check_compatible(square_pair, axis_only())

    def test_anonymous_direction_off_the_kernel_rejected(self):
        inst = CipInstance(IntMatrix.from_rows([[1, 1]]), (2,), (2, 2),
                           linear_objective([1, 2]))
        check_compatible(inst, TestSet(2, frozenset({(1, -1)})))
        with pytest.raises(ValueError, match="kernel"):
            check_compatible(inst, TestSet(2, frozenset({(1, -1), (1, 0)})))
        with pytest.raises(ValueError, match="kernel"):
            solve(inst, TestSet(2, frozenset({(1, 0)})), (2, 0))

    def test_anonymous_direction_off_the_kernel_by_one_past_int64(self):
        # A d = 2^64 + (1 - 2^64) = 1, which a float64 product rounds to 0
        big = 1 << 64
        inst = CipInstance(IntMatrix.from_rows([[1, 1]]), (big,), None,
                           linear_objective([1, 2]))
        check_compatible(inst, TestSet(2, frozenset({(big, -big)})))
        off = TestSet(2, frozenset({(big, 1 - big)}))
        assert off.rows.dtype == object
        with pytest.raises(ValueError, match=r"^test set direction \(%d, %d\) is not in "
                                             r"the kernel" % (big, 1 - big)):
            check_compatible(inst, off)


class TestBruteForce:
    def test_square_pair_box(self, square_pair):
        assert brute_force_optimum(square_pair, (5, 5)) == ((0, 0), 0)

    def test_linear_box(self):
        assert brute_force_optimum(linear_instance(), (4, 4)) == ((0, 0), 0)

    def test_infeasible_right_hand_side(self):
        inst = CipInstance(IntMatrix.from_rows([[1, 1]]), (-1,), None,
                           linear_objective([0, 0]))
        with pytest.raises(ValueError):
            brute_force_optimum(inst, (3, 3))

    def test_equality_constraint_respected(self):
        a = IntMatrix.from_rows([[1, 1]])
        inst = CipInstance(a, (3,), None, linear_objective([2, 1]))
        z, val = brute_force_optimum(inst, (5, 5))
        assert z == (0, 3) and val == 3

    def test_find_feasible_point(self):
        a = IntMatrix.from_rows([[1, 1]])
        inst = CipInstance(a, (3,), None, linear_objective([0, 0]))
        z = find_feasible_point(inst, (5, 5))
        assert z is not None and inst.feasible(z)
        bad = CipInstance(a, (-2,), None, linear_objective([0, 0]))
        assert find_feasible_point(bad, (5, 5)) is None

    def test_deeper_than_the_recursion_limit(self):
        inst = path_difference_instance()
        with time_bound(20):
            assert brute_force_optimum(inst, inst.upper) == ((0,) * inst.n, 0)

    @staticmethod
    def visited(caplog, inst, box):
        """brute_force_optimum's result and the partial assignments its
        DEBUG line counts."""
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="graveropt.augment"):
            got = brute_force_optimum(inst, box)
        [line] = caplog.messages
        return got, int(re.fullmatch(r"brute force: (\d+) partial assignments", line)[1])

    def test_counts_every_value_tried(self, caplog):
        # with no constraint rows every partial assignment is feasible:
        # 3 values of z_0, then 4 of z_1 under each
        inst = CipInstance(IntMatrix.zero(0, 2), (), None, linear_objective([1, -1]))
        assert self.visited(caplog, inst, (2, 3)) == (((0, 3), -3), 3 + 3 * 4)

    @pytest.mark.parametrize("box", [(3, 3), (2, 5, 1)])
    def test_budget_bounds_the_work(self, monkeypatch, caplog, box):
        n = len(box)
        inst = CipInstance(IntMatrix.from_rows([[1, -1] + [2] * (n - 2)]), (1,), None,
                           linear_objective(range(n)))
        want, visited = self.visited(caplog, inst, box)
        monkeypatch.setattr(augment, "BRUTE_FORCE_BUDGET", visited)
        assert brute_force_optimum(inst, box) == want
        monkeypatch.setattr(augment, "BRUTE_FORCE_BUDGET", visited - 1)
        with pytest.raises(OracleBudgetError, match="budget of %d partial assignments "
                           ".BRUTE_FORCE_BUDGET." % (visited - 1)):
            brute_force_optimum(inst, box)


class TestBinarySplitMinimum:
    def test_square_displacement_two(self):
        assert binary_split_minimum(ScaledEvenPower(1, 2), 2, 2) == 4

    def test_zero_displacement(self):
        assert binary_split_minimum(GeometricAbs(3), 0, 1) == 0

    def test_abs_negative_displacement(self):
        assert binary_split_minimum(ScaledAbs(1), -2, 3) == 2

    def test_requires_enough_bits(self):
        with pytest.raises(ValueError):
            binary_split_minimum(Zero(), 3, 2)

    def test_matches_value_difference_across_catalog(self):
        rng = random.Random(77)
        incs = {}
        run = Fraction(-3)
        for j in range(-6, 7):
            run += Fraction(rng.randint(0, 2))
            incs[j] = run if j <= 0 and run <= 0 or j >= 1 and run >= 0 else Fraction(0)
        table = PiecewiseTable(incs)
        for g in (ScaledEvenPower(1, 2), ScaledAbs(2), GeometricAbs(3), table):
            for p in range(-3, 4):
                for k in (abs(p), abs(p) + 2):
                    if k == 0:
                        continue
                    got = binary_split_minimum(g, p, k)
                    assert got == g.value(p) - g.value(0), (g, p, k)


class TestSlackMode:
    """The walk of `graveropt solve --slack-bounds`, the plain walk seen in
    slack coordinates, against a walk on the slack lift itself."""

    def bounded_instance(self):
        obj = SeparableObjective(2, (
            Term(ScaledEvenPower(1, 2), (1, -1), -3),), (Fraction(0), Fraction(0)))
        return CipInstance(FREE2, (), (2, 2), obj)

    def test_lift_shape(self):
        inst = self.bounded_instance()
        lifted = slack_lift(inst)
        assert lifted.a.entries == ((1, 0, 1, 0), (0, 1, 0, 1))
        assert lifted.b == (2, 2)
        assert lifted.upper is None

    def test_embed_matches_bounds(self):
        inst = self.bounded_instance()
        assert embed_slack(inst, (1, 2)) == (1, 2, 1, 0)

    def test_mirror_equals_direct_computation(self):
        inst = self.bounded_instance()
        lifted = slack_lift(inst)
        direct = compute_test_set(
            lifted.a, IntMatrix.from_rows([(1, -1, 0, 0)], cols=4))
        t_set = instance_test_set(inst)
        assert direct.directions == {t + tuple(-x for x in t) for t in t_set.directions}
        for best in (False, True):
            report = _slack_view(solve(inst, t_set, (0, 0), best=best), inst.upper)
            assert report.steps
            assert report == lifted_walk(inst, (0, 0), best)

    def test_bounded_solve_exact(self):
        # minimum of (x - y - 3)^2 within [0,2]^2 is 1, e.g. at (2, 0)
        inst = self.bounded_instance()
        report = solve(inst, instance_test_set(inst), (0, 0))
        assert report.status is SolveStatus.OPTIMAL
        assert report.value == 1
        assert inst.feasible(report.optimum)
        assert inst.objective.value(report.optimum) == 1

    def test_unbounded_test_set_skips_slack_rows(self, square_pair):
        t = instance_test_set(square_pair)
        assert t.dimension == 2
        assert t.directions == pair_test_set().directions


class TestRandomGlobalOptimality:
    def test_random_instances_reach_brute_force_value(self):
        rng = random.Random(101)
        done = 0
        while done < 12:
            n = rng.randint(2, 3)
            m = rng.randint(0, 1)
            a = IntMatrix.from_rows(
                [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)], cols=n)
            terms = tuple(
                Term(ScaledEvenPower(rng.choice((1, 2, 3)), 2),
                     tuple(rng.randint(-2, 2) for _ in range(n)),
                     rng.randint(-2, 2))
                for _ in range(rng.randint(1, 2)))
            if not all(any(t.coeffs) for t in terms):
                continue
            obj = SeparableObjective(
                n, terms, tuple(Fraction(rng.randint(-2, 2)) for _ in range(n)))
            upper = tuple(rng.randint(1, 3) for _ in range(n))
            inst = CipInstance(a, (0,) * m, upper, obj)
            z0 = find_feasible_point(inst, upper)
            if z0 is None:
                continue
            report = solve(inst, instance_test_set(inst), z0)
            assert report.status is SolveStatus.OPTIMAL
            _, want = brute_force_optimum(inst, upper)
            assert report.value == want, (a.entries, terms, upper)
            done += 1


def slack_lift(inst):
    """The bounds of inst moved into the constraints: rows z + s = u
    appended, no bounds, and the objective padded to ignore s."""
    n = inst.n
    unit = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    a = IntMatrix(inst.a.rows + n, 2 * n,
                  tuple(r + (0,) * n for r in inst.a.entries) + tuple(e + e for e in unit))
    obj = SeparableObjective(2 * n, tuple(Term(t.fn, t.coeffs + (0,) * n, t.offset)
                                          for t in inst.objective.terms),
                             inst.objective.linear + (Fraction(0),) * n)
    return CipInstance(a, inst.b + tuple(inst.upper), None, obj)


def embed_slack(inst, z):
    return tuple(z) + tuple(u - x for u, x in zip(inst.upper, z))


def lifted_walk(inst, z0, best):
    """The walk on the slack lift itself, over the lifted system's own
    projected basis: the composition rows padded with n zero columns."""
    lifted = slack_lift(inst)
    c = inst.objective.composition_matrix
    pad = IntMatrix(c.rows, lifted.n, tuple(r + (0,) * inst.n for r in c.entries))
    return solve(lifted, compute_test_set(lifted.a, pad), embed_slack(inst, z0),
                 best=best)


def boxed_completion(inst):
    """The members of the full projected lifted basis that fit in the
    instance's box, recording that box: the set the bounded direction
    set must equal."""
    full = compute_test_set(inst.a, inst.objective.composition_matrix)
    kept = frozenset(d for d in full.directions
                     if all(abs(x) <= u for x, u in zip(d, inst.upper)))
    return full, TestSet(full.dimension, kept, provenance=full.provenance,
                         box=tuple(inst.upper))


@st.composite
def small_bounded_instances(draw):
    n = draw(st.integers(1, 4))
    entry = st.integers(-2, 2)
    a = IntMatrix.from_rows(
        draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=1)), cols=n)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n).filter(any),
                         min_size=1, max_size=2))
    terms = tuple(Term(ScaledEvenPower(draw(st.integers(1, 3)), 2), tuple(row),
                       draw(st.integers(-2, 2))) for row in rows)
    linear = tuple(Fraction(x) for x in draw(st.lists(entry, min_size=n, max_size=n)))
    upper = tuple(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
    z0 = tuple(draw(st.integers(0, u)) for u in upper)
    inst = CipInstance(a, a.mat_vec(z0), upper, SeparableObjective(n, terms, linear))
    return inst, z0


class TestBoundedDirectionSet:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(small_bounded_instances())
    def test_box_part_of_completion_and_same_walk(self, drawn):
        inst, z0 = drawn
        full, boxed = boxed_completion(inst)
        got = instance_test_set(inst)
        assert got == boxed
        for best in (False, True):
            # the slack view of the plain walk is the walk on the slack lift
            assert (_slack_view(solve(inst, got, z0, best=best), inst.upper)
                    == lifted_walk(inst, z0, best))
        report = solve(inst, got, z0)
        # a direction outside the box never fits a unit step, so the walk
        # on the full set takes the very same steps
        assert report == solve(inst, full, z0)
        assert report.status is SolveStatus.OPTIMAL
        assert report.value == brute_force_optimum(inst, inst.upper)[1]

    @staticmethod
    def walk_family(upper):
        # one sum row, four composition rows: 243 directions in the full set
        a = IntMatrix.from_rows([[1, 1, 1, 1, 1]])
        rows = ((-2, -1, -2, 2, 1), (-1, 1, 0, 2, 1),
                (2, -1, 2, -2, -2), (1, 2, -1, 2, 2))
        terms = tuple(Term(ScaledEvenPower(1, 2), r, 0) for r in rows)
        obj = SeparableObjective(5, terms, (Fraction(0),) * 5)
        return CipInstance(a, (sum(upper) // 2,), upper, obj)

    def test_over_budget_box_takes_the_completion(self, caplog):
        inst = self.walk_family((10,) * 5)
        assert box_kernel_vectors(inst.a, inst.upper, limit=BOX_CANDIDATE_LIMIT) is None
        with caplog.at_level(logging.INFO, logger="graveropt.testset"):
            got = instance_test_set(inst)
        full, boxed = boxed_completion(inst)
        assert got == boxed
        assert len(boxed) < len(full)
        assert caplog.messages == [
            "test set: completion (box search over its %d-candidate budget), "
            "%d directions in the box"
            % (BOX_CANDIDATE_LIMIT, len(boxed))]

    def test_dead_end_box_takes_the_completion(self, caplog):
        # 10**6 values of the first coordinate, one in 1000 closing the
        # row: the search budget gives up long before the box is covered
        a = IntMatrix.from_rows([[1, 1000]])
        obj = SeparableObjective(2, (Term(ScaledEvenPower(1, 2), (1, -1), -5),),
                                 (Fraction(0), Fraction(0)))
        inst = CipInstance(a, (3000,), (10 ** 6, 10 ** 6), obj)
        with caplog.at_level(logging.INFO, logger="graveropt.testset"):
            got = instance_test_set(inst)
        assert got.directions == {(1000, -1)}
        assert "completion" in caplog.messages[0]
        report = solve(inst, got, (3000, 0))
        assert (report.optimum, report.value) == ((0, 3), 64)

    def test_box_branch_logged(self, caplog):
        inst = self.walk_family((2,) * 5)
        with caplog.at_level(logging.INFO, logger="graveropt.testset"):
            got = instance_test_set(inst)
        count = len(box_kernel_vectors(inst.a, inst.upper, limit=BOX_CANDIDATE_LIMIT))
        assert caplog.messages == [
            "test set: box, %d candidates, %d directions" % (count, len(got))]

    def test_deeper_than_the_recursion_limit(self):
        inst = path_difference_instance()
        with time_bound(20):
            got = instance_test_set(inst)
            report = solve(inst, got, inst.upper)
        assert got.directions == {(1,) * inst.n}
        assert report.status is SolveStatus.OPTIMAL
        assert (report.optimum, report.value) == ((0,) * inst.n, 0)

    def test_unbounded_branch_logged(self, square_pair, caplog):
        with caplog.at_level(logging.INFO, logger="graveropt.augment"):
            got = instance_test_set(square_pair)
        assert caplog.messages == ["test set: completion, %d directions" % len(got)]


def info_lines(caplog, call):
    """call() and the (logger, level, message) of each record it logs
    at INFO or above on graveropt."""
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="graveropt"):
        got = call()
    return got, [(r.name, r.levelno, r.getMessage()) for r in caplog.records]


@st.composite
def small_families(draw):
    """Several instances of one family (A, C, u): their own right-hand
    sides, starts, term weights and offsets, and linear parts when
    bounded.  Unbounded families have no linear part, so each objective
    is bounded below."""
    n = draw(st.integers(1, 3))
    entry = st.integers(-2, 2)
    a = IntMatrix.from_rows(
        draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=1)), cols=n)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n).filter(any),
                         min_size=1, max_size=2, unique_by=tuple))
    upper = draw(st.none() | st.tuples(*[st.integers(1, 3)] * n))
    members = []
    for _ in range(draw(st.integers(2, 3))):
        terms = tuple(Term(ScaledEvenPower(draw(st.integers(1, 3)), 2), tuple(row),
                           draw(st.integers(-3, 3))) for row in rows)
        if upper is None:
            linear = (Fraction(0),) * n
            z0 = tuple(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)))
        else:
            linear = tuple(map(Fraction, draw(st.lists(entry, min_size=n, max_size=n))))
            z0 = tuple(draw(st.integers(0, u)) for u in upper)
        members.append((CipInstance(a, a.mat_vec(z0), upper,
                                    SeparableObjective(n, terms, linear)), z0))
    return members


def unit_box_set(k):
    """box_test_set of a one-variable family of its own for each box (k,)."""
    return box_test_set(IntMatrix.zero(0, 1), IntMatrix.zero(0, 1), (k,))


class TestFamilyCache:
    def test_hit_returns_the_same_set_and_logs_the_same_line(self, caplog):
        inst = TestBoundedDirectionSet.walk_family((2,) * 5)
        miss, miss_lines = info_lines(caplog, lambda: instance_test_set(inst))
        hit, hit_lines = info_lines(caplog, lambda: instance_test_set(inst))
        assert testset._box_family.cache_info()[:2] == (1, 1)
        assert hit is miss
        assert hit_lines == miss_lines
        assert len(miss_lines) == 1
        assert miss_lines[0][:2] == ("graveropt.testset", logging.INFO)
        assert miss_lines[0][2].startswith("test set: box, ")

    def test_unbounded_family_is_built_on_every_call(self, square_pair, caplog):
        first, first_lines = info_lines(caplog, lambda: instance_test_set(square_pair))
        again, again_lines = info_lines(caplog, lambda: instance_test_set(square_pair))
        assert again == first
        line = ("graveropt.augment", logging.INFO,
                "test set: completion, %d directions" % len(first))
        assert first_lines == again_lines == [line]
        assert testset._box_family.cache_info()[:2] == (0, 0)

    def test_direct_call_returns_the_set_instance_test_set_kept(self):
        inst = TestBoundedDirectionSet.walk_family((2,) * 5)
        got = instance_test_set(inst)
        assert box_test_set(inst.a, inst.objective.composition_matrix, inst.upper) is got

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(small_families())
    def test_warm_cache_solves_as_a_cold_one(self, members):
        cold = []
        for inst, z0 in members:
            clear_box_caches()
            cold.append(repr(solve(inst, instance_test_set(inst), z0)))
        clear_box_caches()
        warm = [repr(solve(inst, instance_test_set(inst), z0)) for inst, z0 in members]
        assert warm == cold
        bounded = members[0][0].upper is not None
        assert testset._box_family.cache_info()[:2] == (
            (len(members) - 1, 1) if bounded else (0, 0))

    def test_least_recently_used_family_evicted(self):
        sets = {k: unit_box_set(k) for k in range(1, FAMILY_CACHE_SIZE + 1)}
        assert unit_box_set(1) is sets[1]
        unit_box_set(FAMILY_CACHE_SIZE + 1)
        info = testset._box_family.cache_info()
        assert (info.currsize, info.maxsize) == (FAMILY_CACHE_SIZE, FAMILY_CACHE_SIZE)
        assert unit_box_set(1) is sets[1]
        assert testset._box_family.cache_info().hits == info.hits + 1
        assert unit_box_set(2) is not sets[2]
        assert testset._box_family.cache_info().misses == info.misses + 1

    def test_upper_as_a_list(self):
        inst = TestBoundedDirectionSet.walk_family((2,) * 5)
        listed = CipInstance(inst.a, inst.b, list(inst.upper), inst.objective)
        got = instance_test_set(listed)
        assert got is instance_test_set(inst)
        c = inst.objective.composition_matrix
        assert box_test_set(inst.a, c, list(inst.upper)) is got
        assert testset._box_family.cache_info()[:2] == (2, 1)
        assert got.box == (2,) * 5
        z0 = (2, 2, 1, 0, 0)
        assert solve(listed, got, z0) == solve(inst, got, z0)


@st.composite
def shared_box_families(draw):
    """Two or three bounded families with one (A, u) and their own C."""
    n = draw(st.integers(1, 4))
    entry = st.integers(-2, 2)
    a = IntMatrix.from_rows(
        draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=1)), cols=n)
    upper = tuple(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
    members = []
    for _ in range(draw(st.integers(2, 3))):
        rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n).filter(any),
                             min_size=1, max_size=2))
        terms = tuple(Term(ScaledEvenPower(1, 2), tuple(row), 0) for row in rows)
        members.append(CipInstance(a, (0,) * a.rows, upper,
                                   SeparableObjective(n, terms, (Fraction(0),) * n)))
    return members


class TestSharedBoxCandidates:
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(shared_box_families())
    def test_warm_candidates_give_the_cold_sets(self, members):
        clear_box_caches()
        warm = [instance_test_set(inst) for inst in members]
        # one search for the (A, u) all the families share
        assert testset._box_candidates.cache_info().misses == 1
        z = testset._box_candidates(members[0].a, members[0].upper).z
        assert not z.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            z[...] = 0
        for inst, got in zip(members, warm):
            clear_box_caches()
            assert instance_test_set(inst) == got
            assert got == boxed_completion(inst)[1]

    def test_over_budget_candidates_fall_back_on_every_c(self, caplog):
        # (A, u) of the walk family at bounds 10, past the box budget,
        # with three composition matrices of its rows
        family = TestBoundedDirectionSet.walk_family((10,) * 5)
        rows = [t.coeffs for t in family.objective.terms]
        for chosen in (rows[:1], rows[1:3], rows[3:]):
            obj = SeparableObjective(5, tuple(Term(ScaledEvenPower(1, 2), r, 0)
                                              for r in chosen), (Fraction(0),) * 5)
            inst = CipInstance(family.a, family.b, family.upper, obj)
            got, lines = info_lines(caplog, lambda: instance_test_set(inst))
            assert got == boxed_completion(inst)[1]
            assert "completion (box search over" in lines[0][2]
        assert testset._box_candidates(family.a, family.upper) is None
        assert testset._box_candidates.cache_info()[:2] == (3, 1)


def objective_at(obj, z):
    """f(z) summed term by term, without SeparableObjective.value."""
    total = Fraction(0)
    for term in obj.terms:
        total += term.fn.value(sum(c * x for c, x in zip(term.coeffs, z)) + term.offset)
    return total + sum((c * x for c, x in zip(obj.linear, z)), Fraction(0))


class TestWalkValues:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(small_bounded_instances())
    def test_reported_values_are_those_of_the_walked_points(self, drawn):
        inst, z0 = drawn
        t_set = instance_test_set(inst)
        lifted = slack_lift(inst)
        for best in (False, True):
            report = solve(inst, t_set, z0, best=best)
            runs = ((report, inst.objective, z0),
                    (_slack_view(report, inst.upper), lifted.objective,
                     embed_slack(inst, z0)))
            for report, obj, z in runs:
                for step in report.steps:
                    z = tuple(x - step.length * d for x, d in zip(z, step.direction))
                    assert step.value_after == objective_at(obj, z)
                assert report.optimum == z
                assert report.value == objective_at(obj, z)


@st.composite
def convex_pieces(draw):
    """One piece of each kind the objective module has, with rational
    weights: an even power, an absolute value, a geometric growth or an
    extended table of increments."""
    weight = st.builds(Fraction, st.integers(1, 5), st.integers(1, 3))
    kind = draw(st.sampled_from(["evenpower", "abs", "geomabs", "table"]))
    if kind == "evenpower":
        return ScaledEvenPower(draw(weight), draw(st.sampled_from([2, 4])))
    if kind == "abs":
        return ScaledAbs(draw(weight))
    if kind == "geomabs":
        return GeometricAbs(1 + draw(weight))
    k = draw(st.integers(1, 3))
    down = sorted(-draw(weight) for _ in range(k))
    up = sorted(draw(weight) for _ in range(k))
    return PiecewiseTable(tuple(zip(range(-k + 1, k + 1), down + up)), extend=True)


@st.composite
def walk_instances(draw):
    """Instances of every piece kind, with rational linear parts,
    bounded or not, and a feasible start.  An unbounded instance may
    descend forever; the walks then run into their cap."""
    n = draw(st.integers(2, 3))
    entry = st.integers(-2, 2)
    a = IntMatrix.from_rows(
        draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=1)), cols=n)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n).filter(any),
                         min_size=1, max_size=2))
    terms = tuple(Term(draw(convex_pieces()), tuple(row), draw(st.integers(-3, 3)))
                  for row in rows)
    linear = tuple(draw(st.lists(st.builds(Fraction, entry, st.integers(1, 3)),
                                 min_size=n, max_size=n)))
    upper = draw(st.none() | st.tuples(*[st.integers(1, 3)] * n))
    z0 = tuple(draw(st.integers(0, 4 if upper is None else u))
               for u in (upper or (None,) * n))
    inst = CipInstance(a, a.mat_vec(z0), upper, SeparableObjective(n, terms, linear))
    return inst, z0


def counted_points(monkeypatch, owner=SeparableObjective, name="value"):
    """The points that owner.name, an evaluation whose last argument is
    the point (SeparableObjective.value by default), is asked for from
    now on."""
    calls = []
    value = getattr(owner, name)
    monkeypatch.setattr(owner, name,
                        lambda *args: calls.append(tuple(args[-1])) or value(*args))
    return calls


def chosen_dtypes(monkeypatch):
    """The dtypes augment.int_dtype picks from now on."""
    dtypes = []
    int_dtype = augment.int_dtype
    monkeypatch.setattr(augment, "int_dtype",
                        lambda reach: dtypes.append(int_dtype(reach)) or dtypes[-1])
    return dtypes


class TestAgainstReferenceWalk:
    """solve, with its step limits and value memo, against
    reference_walk, which has neither."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(walk_instances())
    def test_same_report_as_the_reference(self, drawn):
        # caps 1 and 2 make rays reach cap + 1 and walks stop at their
        # step count, a best-improving scan included
        inst, z0 = drawn
        t_set = instance_test_set(inst)
        for cap in (1, 2, 12):
            for best in (False, True):
                want = reference_walk(inst, t_set, z0, best=best, cap=cap)
                assert repr(solve(inst, t_set, z0, best=best, cap=cap)) == repr(want)

    # past 2^63: the start (so b), the bounds, or both
    BIG = 1 << 64

    @pytest.mark.parametrize("start, upper", [
        ((BIG + 3, BIG - 1, BIG - 2), None),
        ((5, 0, 1), (BIG, BIG, BIG)),
        ((BIG + 3, BIG - 1, BIG - 2), (2 * BIG, 2 * BIG, 2 * BIG)),
    ])
    def test_big_integer_walk_takes_the_object_mask(self, monkeypatch, start, upper):
        a = IntMatrix.from_rows([[1, 1, 1]])
        obj = SeparableObjective(3, (
            Term(ScaledEvenPower(1, 2), (1, -1, 0), 1),
            Term(ScaledAbs(Fraction(3, 2)), (0, 1, -1), 0),
        ), (Fraction(0), Fraction(1, 2), Fraction(0)))
        inst = CipInstance(a, a.mat_vec(start), upper, obj)
        t_set = instance_test_set(inst)
        dtypes = chosen_dtypes(monkeypatch)
        for best in (False, True):
            dtypes.clear()
            report = solve(inst, t_set, start, best=best)
            assert object in dtypes
            assert report.status is SolveStatus.OPTIMAL and report.steps
            assert repr(report) == repr(reference_walk(inst, t_set, start, best=best))

    @pytest.mark.parametrize("best", [False, True])
    def test_cap_past_int64_takes_object_limits(self, monkeypatch, best):
        # small z, but cap + 1 = 2^64 + 1 is among the step limits
        inst, t_set = two_square_instance(), pair_test_set()
        dtypes = chosen_dtypes(monkeypatch)
        report = solve(inst, t_set, (12, 3), best=best, cap=self.BIG)
        assert object in dtypes
        assert report.status is SolveStatus.OPTIMAL and report.steps
        assert repr(report) == repr(reference_walk(inst, t_set, (12, 3), best=best,
                                                   cap=self.BIG))

    @pytest.mark.parametrize("best", [False, True])
    @pytest.mark.parametrize("upper", [None, (9, 9)])
    def test_direction_past_int64_takes_object_limits(self, monkeypatch, best, upper):
        # a hand-built set with an entry past 2^63 next to the axis
        # directions: its unit step leaves the bounds at once either way
        inst = CipInstance(FREE2, (), upper, two_square_instance().objective)
        t_set = TestSet(2, frozenset({(1, 0), (0, 1), (self.BIG, 1)}))
        assert t_set.scan_array.dtype == object
        dtypes = chosen_dtypes(monkeypatch)
        report = solve(inst, t_set, (5, 3), best=best)
        assert object in dtypes
        assert report.status is SolveStatus.OPTIMAL and report.steps
        assert repr(report) == repr(reference_walk(inst, t_set, (5, 3), best=best))

    @pytest.mark.parametrize("best", [False, True])
    @pytest.mark.parametrize("start", [(7, 2), (9, 4), (12, 3)])
    def test_walk_evaluates_each_point_once(self, monkeypatch, best, start):
        # the reference walk asks for some points again (a step back
        # along the direction just taken, at the least); solve, whose
        # walks here meet far fewer than WALK_MEMO_SIZE points, evaluates
        # each once
        inst, t_set = two_square_instance(), pair_test_set()
        reference_calls = counted_points(monkeypatch, helpers, "dense_value")
        calls = counted_points(monkeypatch)
        want = reference_walk(inst, t_set, start, best=best)
        assert len(set(reference_calls)) < len(reference_calls)
        assert not calls
        assert repr(solve(inst, t_set, start, best=best)) == repr(want)
        assert len(set(calls)) == len(calls) < WALK_MEMO_SIZE

    def test_small_memo_evicts_and_still_walks_alike(self, monkeypatch):
        inst, t_set = two_square_instance(), pair_test_set()
        want = reference_walk(inst, t_set, (12, 3))
        calls = counted_points(monkeypatch)
        solve(inst, t_set, (12, 3))
        once = len(calls)
        calls.clear()
        monkeypatch.setattr(augment, "WALK_MEMO_SIZE", 2)
        assert repr(solve(inst, t_set, (12, 3))) == repr(want)
        assert len(calls) > once

    def test_long_walk_keeps_the_memo_within_its_bound(self, monkeypatch):
        # (x - y)^2 - 3/2 (x + y) on the axis directions: a staircase of
        # steps of length 1 or 2 from (0, 0) to (n, n), far more points
        # than the memo holds
        n = 2 * WALK_MEMO_SIZE
        obj = SeparableObjective(2, (Term(ScaledEvenPower(1, 2), (1, -1), 0),),
                                 (Fraction(-3, 2), Fraction(-3, 2)))
        inst = CipInstance(FREE2, (), (n, n), obj)
        memos = []
        search = augment.line_search

        def spy(z, t, value, limit, f):
            assert f.cache_info().currsize <= WALK_MEMO_SIZE
            memos.append(f)
            return search(z, t, value, limit, f)

        monkeypatch.setattr(augment, "line_search", spy)
        report = solve(inst, axis_only(), (0, 0))
        assert report.optimum == (n, n) and len(report.steps) >= n
        assert len({id(f) for f in memos}) == 1
        info = memos[0].cache_info()
        assert info.maxsize == info.currsize == WALK_MEMO_SIZE
        assert info.misses > 2 * WALK_MEMO_SIZE and info.hits > 0


class TestInstanceSerialization:
    def test_round_trip(self, square_pair):
        text = format_instance(square_pair)
        assert parse_instance(text) == square_pair

    def test_round_trip_with_bounds(self):
        a = IntMatrix.from_rows([[1, 1]])
        inst = CipInstance(a, (3,), (2, 2), linear_objective([1, Fraction(1, 2)]))
        assert parse_instance(format_instance(inst)) == inst

    def test_malformed_sections_rejected(self):
        from graveropt.core import ParseError
        with pytest.raises(ParseError):
            parse_instance("A\n1 2\n1 1\nobjective\nlinear | 0 0\n")

    def test_negative_upper_bound_rejected(self):
        # an empty box: the message names the bounds, not a helper that
        # would meet them later
        a = IntMatrix.from_rows([[1, 1]])
        with pytest.raises(ValueError, match=r"upper bounds \(-1, 3\) include a negative"):
            CipInstance(a, (2,), [-1, 3], linear_objective([1, 1]))
        with pytest.raises(ValueError, match=r"upper bounds \(-1, 3\)"):
            parse_instance("A\n1 2\n1 1\nb\n2\nupper\n-1 3\nobjective\nlinear | 1 1\n")
        assert CipInstance(a, (0,), (0, 0), linear_objective([1, 1])).upper == (0, 0)
