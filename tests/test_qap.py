import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graveropt import objective, qap
from graveropt.augment import CipInstance, SolveStatus
from graveropt.core import ParseError
from graveropt.objective import ScaledEvenPower, SeparableObjective, Term
from graveropt.qap import (
    QapInstance,
    assignment_matrix,
    koopmans_beckmann,
    permutation_oracle,
    permutation_point,
    permutation_value,
    point_permutation,
    read_qaplib,
    solve_qap,
    to_cip,
)
from graveropt.quadratic import binary_identity_holds
from graveropt.testset import box_test_set, compute_test_set
from tests.helpers import time_bound, write_qaplib

# Hand-checked assignment values for two facilities:
#   flow [[0,1],[2,0]], distance [[0,3],[5,0]]
#   identity costs 1*3 + 2*5 = 13, the swap costs 1*5 + 2*3 = 11.
FLOW_A = ((0, 1), (2, 0))
DIST_A = ((0, 3), (5, 0))

# pinned three-facility instance; its optimum 22 is at (0, 2, 1)
FLOW_3 = ((0, 2, 1), (2, 0, 3), (1, 3, 0))
DIST_3 = ((0, 4, 2), (4, 0, 1), (2, 1, 0))


def random_kb(rng, n, lo=0, hi=5, hollow=True):
    def mat():
        m = [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]
        if hollow:
            for i in range(n):
                m[i][i] = 0
        return m
    return koopmans_beckmann(mat(), mat())


def exhaustive_best(q):
    """Reference minimum over assignments, written out index by index."""
    best = None
    for p in permutations(range(q.n)):
        s = Fraction(0)
        for i in range(q.n):
            s += q.fixed_cost(i, p[i])
            for k in range(q.n):
                s += q.cost(i, p[i], k, p[k])
        if best is None or s < best[1]:
            best = (p, s)
    return best


def criterion_10_draws():
    """The seed-2026 assignment draws of acceptance criterion 10."""
    rng = random.Random(2026)
    sizes = [rng.choice((3, 4)) for _ in range(10)]
    draws = []
    for n in sizes:
        def hollow():
            m = [[rng.randint(0, 5) for _ in range(n)] for _ in range(n)]
            for d in range(n):
                m[d][d] = 0
            return m
        draws.append(koopmans_beckmann(hollow(), hollow()))
    return draws


def symmetrized_cost(q):
    """(cost(v, u) + cost(u, v)) / 2 over the flattened grid, from
    QapInstance.cost in Fractions."""
    n = q.n
    return tuple(tuple((q.cost(i, j, k, l) + q.cost(k, l, i, j)) / 2
                       for k in range(n) for l in range(n))
                 for i in range(n) for j in range(n))


def mixed_sign_draws():
    """Seeded flow/distance draws for 3 and 4 facilities with entries
    -3..5, without and with fixed costs, integral and over 1..3."""
    rng = random.Random(27)
    draws = []
    for n in (3, 4):
        for with_fixed in (False, True):
            for den in (1, 3):
                def mat():
                    return [[Fraction(rng.randint(-3, 5), rng.randint(1, den))
                             for _ in range(n)] for _ in range(n)]
                draws.append(koopmans_beckmann(mat(), mat(), mat() if with_fixed else None))
    return draws


def reference_to_cip(q):
    """The n^4 Fraction construction of the pairwise encoding: each
    nonzero off-diagonal Q[v][u] (v < u), of sign s, gives
    |Q[v][u]| (z_v + s z_u)^2, and the linear part is fixed + diagonal
    - off-diagonal row mass in absolute value."""
    nn = q.n * q.n
    sym = symmetrized_cost(q)
    terms = tuple(Term(ScaledEvenPower(abs(sym[v][u]), 2),
                       tuple(1 if t == v else (1 if sym[v][u] > 0 else -1) if t == u
                             else 0 for t in range(nn)), 0)
                  for v in range(nn) for u in range(v + 1, nn) if sym[v][u])
    fixed = [q.fixed_cost(i, j) for i in range(q.n) for j in range(q.n)]
    cbar = tuple(fixed[v] + sym[v][v]
                 - sum((abs(sym[v][u]) for u in range(nn) if u != v), Fraction(0))
                 for v in range(nn))
    a, b = assignment_matrix(q.n)
    return CipInstance(a, b, (1,) * nn, SeparableObjective(nn, terms, cbar))


@st.composite
def qap_data(draw):
    """Flow/distance or tensor data for 1 to 4 facilities; entries
    nonnegative or of mixed sign, integral or rational, with or
    without fixed costs."""
    n = draw(st.integers(1, 4))
    lo = draw(st.sampled_from((0, -3)))
    den = draw(st.sampled_from((1, 3)))

    def entries(count, low=lo):
        nums = draw(st.lists(st.integers(low, 5), min_size=count, max_size=count))
        dens = draw(st.lists(st.integers(1, den), min_size=count, max_size=count))
        return [Fraction(a, b) for a, b in zip(nums, dens)]

    def square(vals):
        return [vals[i * n:(i + 1) * n] for i in range(n)]
    fixed = square(entries(n * n, -3)) if draw(st.booleans()) else None
    if draw(st.booleans()):
        return koopmans_beckmann(square(entries(n * n)), square(entries(n * n)), fixed)
    t, r = entries(n ** 4), range(n)
    tensor = tuple(tuple(tuple(tuple(t[((i * n + j) * n + k) * n + l] for l in r)
                               for k in r) for j in r) for i in r)
    return QapInstance(n, tensor=tensor,
                       fixed=tuple(map(tuple, fixed)) if fixed else None)


class TestInstance:
    def test_needs_positive_size(self):
        with pytest.raises(ValueError):
            QapInstance(0, flow=((),), distance=((),))

    def test_needs_exactly_one_form(self):
        with pytest.raises(ValueError):
            QapInstance(1)
        with pytest.raises(ValueError):
            QapInstance(1, flow=((1,),), distance=((1,),),
                        tensor=((((1,),),),))

    def test_shape_check(self):
        with pytest.raises(ValueError):
            koopmans_beckmann([[0, 1]], [[0, 1], [1, 0]])

    def test_tensor_of_a_smaller_size_rejected(self):
        with pytest.raises(ValueError, match="tensor must be 2 x 2 x 2 x 2"):
            QapInstance(2, tensor=((((1,),),),))

    def test_tensor_with_three_axes_rejected(self):
        three = tuple(tuple(tuple(i + j + k for k in range(2)) for j in range(2))
                      for i in range(2))
        with pytest.raises(ValueError, match="tensor must be 2 x 2 x 2 x 2"):
            QapInstance(2, tensor=three)

    def test_entries_held_exactly(self):
        q = koopmans_beckmann([[0, Fraction(4, 2)], [Fraction(1, 3), 0]],
                              [[0, "3"], [1, 0]], fixed=[[1, 2], [3, 4]])
        assert q.flow == ((0, 2), (Fraction(1, 3), 0))
        assert type(q.flow[0][1]) is int and type(q.distance[0][1]) is int
        assert isinstance(q.fixed, tuple) and isinstance(q.fixed[0], tuple)
        assert q.cost(1, 0, 0, 1) == Fraction(1, 3) * 3
        assert type(q.cost(0, 0, 1, 1)) is Fraction
        assert type(q.fixed_cost(0, 0)) is Fraction

    def test_product_cost(self):
        q = koopmans_beckmann(FLOW_A, DIST_A)
        assert q.cost(0, 0, 1, 1) == Fraction(1) * Fraction(3)
        assert q.cost(1, 1, 0, 0) == Fraction(2) * Fraction(5)

    def test_tensor_cost(self):
        t = tuple(tuple(tuple(tuple((i + j + k + l) for l in range(2))
                              for k in range(2)) for j in range(2))
                  for i in range(2))
        q = QapInstance(2, tensor=t)
        assert q.cost(1, 0, 0, 1) == 2

    def test_fixed_cost_defaults_to_zero(self):
        q = koopmans_beckmann(FLOW_A, DIST_A)
        assert q.fixed_cost(0, 1) == 0


class TestAssignmentMatrix:
    def test_two_facilities(self):
        a, b = assignment_matrix(2)
        assert a.entries == ((1, 1, 0, 0),
                             (0, 0, 1, 1),
                             (1, 0, 1, 0),
                             (0, 1, 0, 1))
        assert b == (1, 1, 1, 1)

    def test_needs_positive_size(self):
        with pytest.raises(ValueError):
            assignment_matrix(0)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_rank_is_2n_minus_1(self, n):
        a, _ = assignment_matrix(n)
        rows = [[Fraction(x) for x in r] for r in a.entries]
        rank = 0
        for col in range(a.cols):
            piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
            if piv is None:
                continue
            rows[rank], rows[piv] = rows[piv], rows[rank]
            lead = rows[rank][col]
            for i in range(len(rows)):
                if i != rank and rows[i][col]:
                    f = rows[i][col] / lead
                    rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
            rank += 1
        assert rank == 2 * n - 1

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_permutation_points_satisfy_it(self, n):
        a, b = assignment_matrix(n)
        for p in permutations(range(n)):
            z = permutation_point(p)
            assert a.mat_vec(z) == b


class TestPermutationValue:
    def test_pinned_values(self):
        q = koopmans_beckmann(FLOW_A, DIST_A)
        assert permutation_value(q, (0, 1)) == 13
        assert permutation_value(q, (1, 0)) == 11

    def test_fixed_costs_add_in(self):
        q = koopmans_beckmann(FLOW_A, DIST_A, fixed=((1, 2), (3, 4)))
        assert permutation_value(q, (0, 1)) == 18
        assert permutation_value(q, (1, 0)) == 16

    def test_rejects_non_permutation(self):
        q = koopmans_beckmann(FLOW_A, DIST_A)
        with pytest.raises(ValueError):
            permutation_value(q, (0, 0))
        with pytest.raises(ValueError):
            permutation_value(q, (0,))
        with pytest.raises(ValueError, match="not a permutation of 0..n-1"):
            permutation_value(q, (1.0, 0))


class TestPermutationOracle:
    def test_picks_minimum(self):
        q = koopmans_beckmann(FLOW_A, DIST_A)
        assert permutation_oracle(q) == ((1, 0), 11)

    def test_tie_breaks_lexicographically(self):
        q = koopmans_beckmann(((0, 0), (0, 0)), ((0, 0), (0, 0)))
        assert permutation_oracle(q) == ((0, 1), 0)

    def test_single_facility(self):
        q = koopmans_beckmann(((7,),), ((2,),))
        assert permutation_oracle(q) == ((0,), 14)

    def test_enumeration_limit(self):
        n = 9
        zero = tuple((0,) * n for _ in range(n))
        with pytest.raises(ValueError):
            permutation_oracle(koopmans_beckmann(zero, zero))

    def test_matches_reference_search(self):
        rng = random.Random(5)
        for _ in range(10):
            q = random_kb(rng, 3)
            assert permutation_oracle(q)[1] == exhaustive_best(q)[1]


class TestToCip:
    def test_constraints_are_the_assignment_system(self):
        q = koopmans_beckmann(FLOW_A, DIST_A)
        inst = to_cip(q)
        a, b = assignment_matrix(2)
        assert inst.a == a
        assert inst.b == b
        assert inst.upper == (1, 1, 1, 1)

    def test_objective_agrees_on_all_assignments(self):
        rng = random.Random(6)
        for n in (2, 3):
            for _ in range(5):
                q = random_kb(rng, n)
                inst = to_cip(q)
                for p in permutations(range(n)):
                    z = permutation_point(p)
                    assert inst.objective.value(z) == permutation_value(q, p)

    def test_objective_agrees_with_fixed_costs(self):
        fixed = ((1, -2), (3, 0))
        q = koopmans_beckmann(FLOW_A, DIST_A, fixed=fixed)
        inst = to_cip(q)
        for p in permutations(range(2)):
            z = permutation_point(p)
            assert inst.objective.value(z) == permutation_value(q, p)

    def test_objective_agrees_on_tensor_form(self):
        rng = random.Random(7)
        t = tuple(tuple(tuple(tuple(rng.randint(0, 4) for _ in range(2))
                              for _ in range(2)) for _ in range(2))
                  for _ in range(2))
        q = QapInstance(2, tensor=t)
        inst = to_cip(q)
        for p in permutations(range(2)):
            z = permutation_point(p)
            assert inst.objective.value(z) == permutation_value(q, p)

    def test_nonnegative_instance_keeps_rows_binary(self):
        rng = random.Random(8)
        q = random_kb(rng, 3, lo=1)
        inst = to_cip(q)
        for term in inst.objective.terms:
            assert set(term.coeffs) <= {0, 1}

    def test_permutation_points_are_feasible(self):
        q = koopmans_beckmann(FLOW_A, DIST_A)
        inst = to_cip(q)
        for p in permutations(range(2)):
            assert inst.feasible(permutation_point(p))

    def test_pairwise_terms_and_linear(self):
        # W = 2 Q has the off-diagonal pairs x_00 x_11: 1*3 + 2*5 = 13
        # and x_01 x_10: 1*5 + 2*3 = 11, and a zero diagonal
        q = koopmans_beckmann(FLOW_A, DIST_A, fixed=((1, -2), (3, 0)))
        obj = to_cip(q).objective
        assert obj.terms == (
            Term(ScaledEvenPower(Fraction(13, 2), 2), (1, 0, 0, 1), 0),
            Term(ScaledEvenPower(Fraction(11, 2), 2), (0, 1, 1, 0), 0))
        assert obj.linear == (Fraction(-11, 2), Fraction(-15, 2),
                              Fraction(-5, 2), Fraction(-13, 2))
        assert obj.value(permutation_point((0, 1))) == 14
        assert obj.value(permutation_point((1, 0))) == 12

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(qap_data())
    def test_matches_the_cost_oracle(self, q):
        inst = to_cip(q)
        for p in permutations(range(q.n)):
            assert inst.objective.value(permutation_point(p)) == permutation_value(q, p)
        fixed = [q.fixed_cost(i, j) for i in range(q.n) for j in range(q.n)]
        terms = [(t.fn.alpha, t.coeffs) for t in inst.objective.terms]
        assert binary_identity_holds(symmetrized_cost(q), fixed, terms,
                                     inst.objective.linear)

    def test_equals_the_fraction_construction(self):
        mixed = mixed_sign_draws()
        assert all(any(-1 in t.coeffs for t in to_cip(q).objective.terms)
                   for q in mixed)
        for q in criterion_10_draws() + mixed:
            got, want = to_cip(q), reference_to_cip(q)
            assert got == want
            assert repr(got) == repr(want)


    def test_shared_parts_in_either_order_of_sizes(self):
        # signed Fraction flow/distance data, tensors and fixed costs
        # for 1 to 4 facilities, built small to large and large to
        # small, each order from empty caches of rows, pieces and supports
        rng = random.Random(29)

        def entries(count):
            return [Fraction(rng.randint(-3, 5), rng.randint(1, 3)) for _ in range(count)]

        def square(n):
            vals = entries(n * n)
            return [vals[i * n:(i + 1) * n] for i in range(n)]

        draws = {}
        for n in (1, 2, 3, 4):
            r, t = range(n), entries(n ** 4)
            tensor = [[[[t[((i * n + j) * n + k) * n + l] for l in r] for k in r]
                       for j in r] for i in r]
            draws[n] = [koopmans_beckmann(square(n), square(n)),
                        koopmans_beckmann(square(n), square(n), square(n)),
                        QapInstance(n, tensor=tensor, fixed=square(n))]
        for sizes in ((1, 2, 3, 4), (4, 3, 2, 1)):
            qap._unit_pairs.cache_clear()
            qap._piece.cache_clear()
            objective._row_support.cache_clear()
            for _ in range(2):
                for n in sizes:
                    for q in draws[n]:
                        got, want = to_cip(q), reference_to_cip(q)
                        assert got == want
                        assert repr(got) == repr(want)
        # instances of one size share each row and the piece of each weight
        first, second = (to_cip(q).objective.terms for q in draws[3][:2])
        rows = {t.coeffs: t.coeffs for t in first}
        pieces = {t.fn: t.fn for t in first}
        shared = [t for t in second if t.coeffs in rows]
        assert shared and all(rows[t.coeffs] is t.coeffs for t in shared)
        assert all(pieces[t.fn] is t.fn for t in second if t.fn in pieces)


class TestPoints:
    def test_round_trip(self):
        for p in permutations(range(3)):
            assert point_permutation(permutation_point(p), 3) == p

    def test_point_layout(self):
        assert permutation_point((1, 0)) == (0, 1, 1, 0)

    def test_rejects_empty_row(self):
        with pytest.raises(ValueError):
            point_permutation((1, 0, 0, 0), 2)

    def test_rejects_doubled_row(self):
        with pytest.raises(ValueError):
            point_permutation((1, 1, 0, 0), 2)

    def test_rejects_reused_column(self):
        with pytest.raises(ValueError):
            point_permutation((1, 0, 1, 0), 2)


class TestBoxTestSet:
    """The 0/1-box set solve_qap walks on, against the box members of the
    full lifted completion, which shares no enumeration code with it."""

    @staticmethod
    def both(q):
        inst = to_cip(q)
        box = box_test_set(inst.a, inst.objective.composition_matrix, inst.upper)
        full = compute_test_set(inst.a, inst.objective.composition_matrix)
        return box.directions, frozenset(
            d for d in full.directions
            if all(abs(x) <= u for x, u in zip(d, inst.upper)))

    def test_pinned_instances(self):
        for q in (koopmans_beckmann(FLOW_A, DIST_A),
                  koopmans_beckmann(FLOW_3, DIST_3)):
            box, full = self.both(q)
            assert box and box == full

    def test_random_three_facility_draws(self):
        rng = random.Random(14)
        for _ in range(3):
            box, full = self.both(random_kb(rng, 3))
            assert box and box == full

    def test_single_facility(self):
        q = koopmans_beckmann(((0,),), ((0,),), fixed=((3,),))
        box, full = self.both(q)
        assert box == full == frozenset()
        perm, value, _ = solve_qap(q)
        assert (perm, value) == ((0,), 3)


class TestSolveQap:
    def test_two_facilities_from_identity(self):
        q = koopmans_beckmann(FLOW_A, DIST_A)
        perm, value, report = solve_qap(q)
        assert perm == (1, 0)
        assert value == 11
        assert report.status is SolveStatus.OPTIMAL

    @pytest.mark.parametrize("start", [(0, 1, 5), (0, 1, -1), (0, 1, 1), (0, 1),
                                       (2, 0, 1, 3), (0.0, 1, 2)])
    def test_start_must_be_a_permutation(self, start):
        # once: an IndexError for (0, 1, 5), -1 indexed the point from
        # its end, and 0.0 gave a TypeError
        with pytest.raises(ValueError, match="not a permutation of 0..n-1"):
            solve_qap(koopmans_beckmann(FLOW_3, DIST_3), start=start)

    def test_fixed_costs_steer_the_walk(self):
        q = koopmans_beckmann(((0, 1), (1, 0)), ((0, 1), (1, 0)),
                              fixed=((0, 5), (5, 0)))
        perm, value, _ = solve_qap(q, start=(1, 0))
        assert perm == (0, 1)
        assert value == 2

    def test_three_facilities_pinned(self):
        q = koopmans_beckmann(((0, 2, 1), (2, 0, 3), (1, 3, 0)),
                              ((0, 4, 2), (4, 0, 1), (2, 1, 0)))
        perm, value, _ = solve_qap(q)
        assert value == 22
        assert perm == (0, 2, 1)

    def test_random_instances_reach_the_oracle_value(self):
        rng = random.Random(12)
        for _ in range(3):
            q = random_kb(rng, 3, lo=1)
            start = list(range(3))
            rng.shuffle(start)
            perm, value, _ = solve_qap(q, start=tuple(start))
            assert value == permutation_oracle(q)[1]
            assert permutation_value(q, perm) == value

    def test_mixed_sign_draws_reach_the_oracle_value(self):
        with time_bound(60):
            for q in mixed_sign_draws():
                perm, value, report = solve_qap(q)
                assert report.status is SolveStatus.OPTIMAL
                assert value == permutation_oracle(q)[1]
                assert permutation_value(q, perm) == value

    def test_best_improving_matches(self):
        q = koopmans_beckmann(FLOW_A, DIST_A)
        _, value, _ = solve_qap(q, best=True)
        assert value == 11

    def test_walk_stays_on_assignments(self):
        q = koopmans_beckmann(((0, 2, 1), (2, 0, 3), (1, 3, 0)),
                              ((0, 4, 2), (4, 0, 1), (2, 1, 0)))
        perm, _, report = solve_qap(q, start=(2, 0, 1))
        inst = to_cip(q)
        z = permutation_point((2, 0, 1))
        seen_values = []
        for step in report.steps:
            z = tuple(a - step.length * b for a, b in zip(z, step.direction))
            assert inst.feasible(z)
            point_permutation(z, 3)  # raises unless still an assignment
            seen_values.append(step.value_after)
        assert report.steps and z == report.optimum
        assert seen_values == sorted(seen_values, reverse=True)
        assert point_permutation(z, 3) == perm


class TestQaplibFormat:
    PINNED = "2\n0 1\n1 0\n0 2\n2 0\n"

    def test_read_pinned(self):
        q = read_qaplib(self.PINNED)
        assert q.n == 2
        assert q.flow == ((0, 1), (1, 0))
        assert q.distance == ((0, 2), (2, 0))

    def test_read_ignores_layout(self):
        q = read_qaplib("2 0 1 1 0\n\n0 2 2 0")
        assert q.n == 2 and q.distance == ((0, 2), (2, 0))

    def test_empty_input(self):
        with pytest.raises(ParseError):
            read_qaplib("")

    def test_truncated_input(self):
        with pytest.raises(ParseError):
            read_qaplib("2\n0 1\n1 0\n0 2\n")

    def test_trailing_token(self):
        with pytest.raises(ParseError):
            read_qaplib(self.PINNED + "9\n")

    def test_bad_integer_reports_line(self):
        with pytest.raises(ParseError) as err:
            read_qaplib("2\n0 x\n1 0\n0 2\n2 0\n")
        assert "line 2" in str(err.value)

    def test_bad_size(self):
        with pytest.raises(ParseError):
            read_qaplib("0\n")

    def test_round_trip(self):
        rng = random.Random(13)
        q = random_kb(rng, 3)
        back = read_qaplib(write_qaplib(q))
        assert back.flow == q.flow and back.distance == q.distance

    def test_write_rejects_tensor_form(self):
        t = ((((1,),),),)
        with pytest.raises(ValueError):
            write_qaplib(QapInstance(1, tensor=t))
