import logging
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graveropt.core import IntMatrix
from graveropt.graver import box_kernel_vectors, compute_graver
from graveropt.objective import (
    GeometricAbs,
    PiecewiseTable,
    ScaledAbs,
    ScaledEvenPower,
    SeparableObjective,
    Term,
    Zero,
    linear_objective,
)
from graveropt.augment import (
    FAMILY_CACHE_SIZE,
    CipInstance,
    InfeasibleStartError,
    SolveStatus,
    brute_force_optimum,
    check_compatible,
    composition_matrix,
    find_improving,
    instance_test_set,
    line_search,
    max_feasible_step,
    parse_instance,
    solve,
)
from graveropt.cli import _slack_view
from graveropt.testset import (
    BOX_CANDIDATE_LIMIT,
    TestSet,
    compute_test_set,
    format_test_set,
    parse_test_set,
)
from tests.helpers import binary_split_minimum, find_feasible_point, format_instance


def pair_test_set():
    return compute_test_set(IntMatrix.zero(0, 2),
                            IntMatrix.from_rows([[1, 1], [1, -1]]))


def axis_only():
    return TestSet(2, frozenset({(1, 0), (0, 1)}))


FREE2 = IntMatrix.zero(0, 2)


def linear_instance():
    return CipInstance(FREE2, (), None, linear_objective([1, 1]))


class TestMaxFeasibleStep:
    def test_lower_bound_limits(self):
        inst = linear_instance()
        assert max_feasible_step(inst, (3, 2), (1, 0)) == 3
        assert max_feasible_step(inst, (3, 2), (1, 1)) == 2

    def test_unbounded_direction(self):
        inst = linear_instance()
        assert max_feasible_step(inst, (3, 2), (-1, 0)) is None

    def test_upper_bound_limits(self):
        inst = CipInstance(FREE2, (), (5, 5), linear_objective([1, 1]))
        assert max_feasible_step(inst, (3, 2), (-1, 0)) == 2


class TestLineSearch:
    def test_linear_slides_to_bound(self):
        assert line_search(linear_instance(), (3, 2), (1, 0), 5) == (3, 2)

    def test_quadratic_stops_at_minimum(self, square_pair):
        assert line_search(square_pair, (2, 2), (1, 1), 16) == (2, 0)

    def test_infeasible_unit_step(self):
        assert line_search(linear_instance(), (0, 0), (1, 0), 0) is None

    def test_non_improving_step(self, square_pair):
        assert line_search(square_pair, (1, 1), (-1, -1), 4) is None

    def test_descending_ray_hits_cap(self):
        inst = CipInstance(FREE2, (), None, linear_objective([1, 1]))
        with pytest.raises(RuntimeError):
            line_search(inst, (10 ** 7, 0), (1, 0), 10 ** 7, cap=1000)

    def test_minimizer_exactly_at_cap(self):
        # (x - 3)^2 from x = 0 along +1: step 4 no longer improves, so
        # cap 3 is enough and cap 2 is not
        inst = CipInstance(IntMatrix.zero(0, 1), (), None, SeparableObjective(
            1, (Term(ScaledEvenPower(1, 2), (1,), -3),), (Fraction(0),)))
        assert line_search(inst, (0,), (-1,), 9, cap=3) == (3, 0)
        with pytest.raises(RuntimeError):
            line_search(inst, (0,), (-1,), 9, cap=2)


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


class TestCompatibility:
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
    c = composition_matrix(inst)
    pad = IntMatrix(c.rows, lifted.n, tuple(r + (0,) * inst.n for r in c.entries))
    return solve(lifted, compute_test_set(lifted.a, pad), embed_slack(inst, z0),
                 best=best)


def boxed_completion(inst):
    """The members of the full projected lifted basis that fit in the
    instance's box, recording that box: the set the bounded direction
    set must equal."""
    full = compute_test_set(inst.a, composition_matrix(inst))
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
        count = len(box_kernel_vectors(inst.a, inst.upper))
        assert caplog.messages == [
            "test set: box, %d candidates, %d directions" % (count, len(got))]

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


def unit_box_instance(k):
    """A one-variable family of its own for each box (k,)."""
    return CipInstance(IntMatrix.zero(0, 1), (), (k,), linear_objective([1]))


class TestFamilyCache:
    def test_hit_returns_the_same_set_and_logs_the_same_line(self, square_pair, caplog):
        bounded = TestBoundedDirectionSet.walk_family((2,) * 5)
        for inst, logger in ((bounded, "graveropt.testset"), (square_pair, "graveropt.augment")):
            instance_test_set.cache_clear()
            miss, miss_lines = info_lines(caplog, lambda: instance_test_set(inst))
            hit, hit_lines = info_lines(caplog, lambda: instance_test_set(inst))
            assert instance_test_set.cache_info()[:2] == (1, 1)
            assert hit is miss
            assert hit_lines == miss_lines
            assert len(miss_lines) == 1 and miss_lines[0][:2] == (logger, logging.INFO)
            assert miss_lines[0][2].startswith("test set: ")

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(small_families())
    def test_warm_cache_solves_as_a_cold_one(self, members):
        cold = []
        for inst, z0 in members:
            instance_test_set.cache_clear()
            cold.append(repr(solve(inst, instance_test_set(inst), z0)))
        instance_test_set.cache_clear()
        warm = [repr(solve(inst, instance_test_set(inst), z0)) for inst, z0 in members]
        assert warm == cold
        assert instance_test_set.cache_info()[:2] == (len(members) - 1, 1)

    def test_least_recently_used_family_evicted(self):
        instance_test_set.cache_clear()
        sets = {k: instance_test_set(unit_box_instance(k))
                for k in range(1, FAMILY_CACHE_SIZE + 1)}
        assert instance_test_set(unit_box_instance(1)) is sets[1]
        instance_test_set(unit_box_instance(FAMILY_CACHE_SIZE + 1))
        info = instance_test_set.cache_info()
        assert (info.currsize, info.maxsize) == (FAMILY_CACHE_SIZE, FAMILY_CACHE_SIZE)
        assert instance_test_set(unit_box_instance(1)) is sets[1]
        assert instance_test_set.cache_info().hits == info.hits + 1
        assert instance_test_set(unit_box_instance(2)) is not sets[2]
        assert instance_test_set.cache_info().misses == info.misses + 1

    def test_upper_as_a_list(self):
        inst = TestBoundedDirectionSet.walk_family((2,) * 5)
        listed = CipInstance(inst.a, inst.b, list(inst.upper), inst.objective)
        got = instance_test_set(listed)
        assert got is instance_test_set(inst)
        assert got.box == (2,) * 5
        z0 = (2, 2, 1, 0, 0)
        assert solve(listed, got, z0) == solve(inst, got, z0)


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
