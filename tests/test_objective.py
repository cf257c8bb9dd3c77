import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graveropt.cli import main
from graveropt.core import IntMatrix, ParseError
from graveropt.objective import (
    DiscreteConvexFn,
    GeometricAbs,
    PiecewiseTable,
    ScaledAbs,
    ScaledEvenPower,
    SeparableObjective,
    Term,
    Zero,
    check_convex_window,
    format_objective,
    linear_objective,
    parse_objective,
)
from tests.conftest import two_square_instance
from tests.helpers import dense_value, time_bound


class TestCatalogValues:
    def test_even_power(self):
        assert ScaledEvenPower(4, 2).value(-1) == 4
        assert ScaledEvenPower(1, 4).value(2) == 16

    def test_zero(self):
        assert Zero().value(123) == 0
        assert Zero().increment(-7) == 0

    def test_geometric(self):
        g = GeometricAbs(3)
        assert g.value(2) == 8
        assert g.value(0) == 0
        assert g.value(-2) == 8

    def test_scaled_abs(self):
        assert ScaledAbs(2).value(-3) == 6

    def test_all_zero_at_origin(self):
        table = PiecewiseTable({-1: Fraction(-1), 0: Fraction(0), 1: Fraction(1)})
        for g in (Zero(), ScaledEvenPower(3, 2), ScaledAbs(1), GeometricAbs(2), table):
            assert g.value(0) == 0

    def test_rational_parameters(self):
        assert ScaledEvenPower(Fraction(1, 2), 2).value(3) == Fraction(9, 2)
        assert GeometricAbs(Fraction(3, 2)).value(2) == Fraction(5, 4)


class TestIncrements:
    def test_even_power(self):
        assert ScaledEvenPower(1, 2).increment(3) == 5

    def test_zero(self):
        assert Zero().increment(40) == 0

    def test_geometric_left_of_origin(self):
        g = GeometricAbs(3)
        assert g.increment(-1) == -6       # g(-1) - g(-2) = 2 - 8
        assert g.value(-1) - g.value(0) == 2

    def test_matches_value_difference(self):
        rng = random.Random(3)
        fns = [ScaledEvenPower(2, 2), ScaledAbs(3), GeometricAbs(2)]
        for g in fns:
            for _ in range(10):
                j = rng.randint(-5, 5)
                assert g.increment(j) == g.value(j) - g.value(j - 1)


class TestValidation:
    def test_even_power_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ScaledEvenPower(0, 2)
        with pytest.raises(ValueError):
            ScaledEvenPower(1, 3)
        with pytest.raises(ValueError):
            ScaledEvenPower(1, 0)

    def test_scaled_abs_requires_positive(self):
        with pytest.raises(ValueError):
            ScaledAbs(0)

    def test_geometric_requires_base_above_one(self):
        with pytest.raises(ValueError):
            GeometricAbs(1)

    def test_float_exponent_rejected(self):
        # once accepted: value((3,)) returned the float 9.0
        with pytest.raises(ValueError):
            SeparableObjective(1, (Term(ScaledEvenPower(1, 2.0), (1,), 0),),
                               (0,)).value((3,))

    @pytest.mark.parametrize("coeffs, offset", [((0.5,), 0), ((1,), 0.5), ((1.0,), 0)])
    def test_float_coefficient_or_offset_rejected(self, coeffs, offset):
        # once accepted: value((3,)) returned 1.0 and 6.25; (1.0,), equal
        # to (1,) with the same hash, also after (1,) has been built
        SeparableObjective(1, (Term(ScaledEvenPower(1, 2), (1,), 0),), (0,))
        with pytest.raises(ValueError, match="must be integers"):
            SeparableObjective(1, (Term(ScaledEvenPower(1, 2), coeffs, offset),),
                               (0,)).value((3,))

    def test_float_table_keys_rejected(self):
        # once truncated to the keys 0 and 1
        with pytest.raises(ValueError):
            PiecewiseTable({0.5: 0, 1.9: 1})
        with pytest.raises(ValueError):
            PiecewiseTable(((0, 0), (1.0, 1)))


class TestPiecewiseTable:
    def test_values_accumulate_increments(self):
        g = PiecewiseTable({-1: Fraction(-2), 0: Fraction(0),
                            1: Fraction(1), 2: Fraction(3)})
        assert g.value(2) == 4
        assert g.value(-1) == 0   # back out the 0-step: 0 - 0
        assert g.value(-2) == 2   # back out the -1 step too: 0 - (-2)
        assert g.value(0) == 0

    def test_outside_window_raises(self):
        g = PiecewiseTable({0: Fraction(0), 1: Fraction(1)})
        with pytest.raises(ValueError):
            g.value(3)

    def test_extend_continues_boundary_slope(self):
        g = PiecewiseTable({0: Fraction(0), 1: Fraction(2)}, extend=True)
        assert g.value(3) == 6
        assert g.increment(10) == 2

    @pytest.mark.parametrize("extend", [False, True])
    def test_value_is_the_sum_of_increments(self, extend):
        incs = {-2: Fraction(-5, 2), -1: Fraction(-1), 0: Fraction(-1, 3),
                1: Fraction(0), 2: Fraction(3, 4), 3: Fraction(2)}
        g = PiecewiseTable(incs, extend=extend)
        reach = 7 if extend else 3

        def inc(j):
            return incs[min(max(j, -2), 3)]

        # g(x) = sum_{j=1..x} g(j)-g(j-1) right of 0, minus the
        # increments of (x, 0] left of it
        for x in range(-reach, reach + 1):
            if x >= 0:
                want = sum((inc(j) for j in range(1, x + 1)), Fraction(0))
            else:
                want = -sum((inc(j) for j in range(x + 1, 1)), Fraction(0))
            assert g.value(x) == want, x
        if not extend:
            for x in (-4, 4):
                with pytest.raises(ValueError):
                    g.value(x)
        assert g == PiecewiseTable(dict(incs), extend=extend)
        assert hash(g) == hash(PiecewiseTable(dict(incs), extend=extend))

    def test_huge_argument_in_closed_form(self):
        incs = {-1: Fraction(-3), 0: Fraction(-1, 2), 1: Fraction(1), 2: Fraction(5, 2)}
        g = PiecewiseTable(incs, extend=True)
        x = 10 ** 12
        # past the window every step adds the boundary increment again
        with time_bound(2.0):
            assert g.value(x) == 1 + Fraction(5, 2) * (x - 1)
            assert g.value(-x) == Fraction(7, 2) + 3 * (x - 2)
        bare = PiecewiseTable(incs)
        for arg, first in ((x, 3), (-x, 1 - x)):
            with pytest.raises(ValueError, match="increment %d outside" % first), \
                    time_bound(2.0):
                bare.value(arg)

    def test_wide_window_evaluates_in_constant_time(self):
        # increments 2j - 1 on [-H + 1, H]: g(x) = x^2 inside the window,
        # and past it each step adds the boundary increment again
        h = 5 * 10 ** 4
        g = PiecewiseTable({j: 2 * j - 1 for j in range(-h + 1, h + 1)}, extend=True)

        def closed_form(x):
            if x > h:
                return h * h + (2 * h - 1) * (x - h)
            if x < -h:
                return h * h + (2 * h - 1) * (-h - x)
            return x * x

        rng = random.Random(26)
        points = [rng.randint(-h - 10, h + 10) for _ in range(500)]
        points += [rng.choice((-1, 1)) * rng.randint(h - 5, 3 * h) for _ in range(500)]
        with time_bound(2.0):
            got = [g.value(x) for x in points]
        assert got == [closed_form(x) for x in points]

    def test_non_convex_table_rejected(self):
        # built in Python, this table once let solve on A = [[1, 1]],
        # b = (4,) stop at (1, 3) with value -1; the minimum is -16 at (4, 0)
        with pytest.raises(ValueError, match="must not decrease"):
            PiecewiseTable({1: -1, 2: 5, 3: -10, 4: -10})
        with pytest.raises(ValueError, match="must not decrease"):
            PiecewiseTable({1: -1, 2: 5, 3: -10, 4: -10}, extend=True)

    def test_window_must_be_contiguous(self):
        with pytest.raises(ValueError):
            PiecewiseTable({0: Fraction(0), 2: Fraction(1)})
        with pytest.raises(ValueError):
            PiecewiseTable({})


class Increments(DiscreteConvexFn):
    """A piece given by a dict of increments, checked by nothing."""

    def __init__(self, incs):
        self.incs = incs

    def increment(self, j):
        return Fraction(self.incs[j])


class TestConvexWindow:
    def test_even_power_convex(self):
        assert check_convex_window(ScaledEvenPower(1, 2), -5, 5)

    def test_decreasing_increments_rejected(self):
        with pytest.raises(ValueError, match="must not decrease"):
            PiecewiseTable({-1: Fraction(-2), 0: Fraction(1), 1: Fraction(0)})
        # decreasing on either side of the origin, signs all right
        assert not check_convex_window(Increments({-1: -1, 0: -2}), -2, 0)
        assert not check_convex_window(Increments({1: 2, 2: 1}), 0, 2)
        assert check_convex_window(Increments({-1: -2, 0: -1, 1: 0, 2: 3}), -2, 2)

    def test_scaled_abs_convex(self):
        assert check_convex_window(ScaledAbs(2), -10, 10)

    def test_positive_increment_left_of_origin_rejected(self):
        with pytest.raises(ValueError, match="must not decrease"):
            PiecewiseTable({0: Fraction(1), 1: Fraction(1)})
        assert not check_convex_window(Increments({0: 1, 1: 1}), -1, 1)
        # and a negative one right of it, with nondecreasing increments
        assert not check_convex_window(Increments({0: -2, 1: -1}), -1, 1)

    def test_window_shape_checked(self):
        with pytest.raises(ValueError):
            check_convex_window(Zero(), 3, 3)


class TestSeparableObjective:
    def test_two_square_values(self):
        f = two_square_instance().objective
        assert f.value((1, 1)) == 4
        assert f.value((1, 0)) == 5
        assert f.value((0, 1)) == 5
        assert f.value((2, 1)) == 13
        assert f.value((1, 2)) == 13

    def test_dimension_checked(self):
        f = two_square_instance().objective
        with pytest.raises(ValueError):
            f.value((1, 1, 1))

    def test_linear_only(self):
        f = linear_objective([Fraction(2), Fraction(-1)])
        assert f.value((3, 4)) == 2
        assert not f.terms

    def test_all_zero_pieces_reduce_to_linear(self):
        f = SeparableObjective(2, (
            Term(Zero(), (1, 1), 0), Term(Zero(), (1, -1), 2)),
            (Fraction(1), Fraction(2)))
        for z in ((0, 0), (3, 1), (2, 5)):
            assert f.value(z) == z[0] + 2 * z[1]

    def test_offset_shifts_argument(self):
        f = SeparableObjective(1, (Term(ScaledEvenPower(1, 2), (1,), -3),),
                               (Fraction(0),))
        assert f.value((3,)) == 0
        assert f.value((5,)) == 4

    def test_mismatched_widths_rejected(self):
        with pytest.raises(ValueError):
            SeparableObjective(2, (Term(Zero(), (1,), 0),), (Fraction(0), Fraction(0)))
        with pytest.raises(ValueError):
            SeparableObjective(2, (), (Fraction(0),))

    def test_descent_along_direction_is_convex(self):
        f = two_square_instance().objective
        rng = random.Random(13)
        for _ in range(20):
            z = (rng.randint(0, 5), rng.randint(0, 5))
            t = (rng.randint(-2, 2), rng.randint(-2, 2))
            vals = [f.value((z[0] - lam * t[0], z[1] - lam * t[1]))
                    for lam in range(-3, 4)]
            incs = [b - a for a, b in zip(vals, vals[1:])]
            assert incs == sorted(incs)


def as_objective(x):
    """x itself if it is an objective, else one term of the piece x."""
    if isinstance(x, SeparableObjective):
        return x
    return SeparableObjective(1, (Term(x, (1,), 0),), (Fraction(0),))


# (build from a value v, the stored copy of v): each constructor that
# takes a rational, with v > 1 so every piece accepts it
FRACTION_ARGUMENTS = [
    pytest.param(lambda v: ScaledEvenPower(v, 2), lambda g: g.alpha, id="evenpower"),
    pytest.param(ScaledAbs, lambda g: g.alpha, id="abs"),
    pytest.param(GeometricAbs, lambda g: g.base, id="geomabs"),
    pytest.param(lambda v: PiecewiseTable(((0, Fraction(0)), (1, v))),
                 lambda g: g.increments[1][1], id="table"),
    pytest.param(lambda v: SeparableObjective(2, (), (Fraction(0), v)),
                 lambda f: f.linear[1], id="linear"),
]


class TestFractionArguments:
    @pytest.mark.parametrize("build, stored", FRACTION_ARGUMENTS)
    def test_fraction_kept(self, build, stored):
        v = Fraction(7, 3)
        assert stored(build(v)) is v

    @pytest.mark.parametrize("build, stored", FRACTION_ARGUMENTS)
    def test_int_converted(self, build, stored):
        got = stored(build(3))
        assert type(got) is Fraction and got == 3

    @pytest.mark.parametrize("build, stored", FRACTION_ARGUMENTS)
    def test_equal_from_either(self, build, stored):
        from_fraction, from_int = build(Fraction(3)), build(3)
        assert from_fraction == from_int
        assert hash(from_fraction) == hash(from_int)
        assert repr(from_fraction) == repr(from_int)
        assert (format_objective(as_objective(from_fraction))
                == format_objective(as_objective(from_int)))


BIG = 2 ** 64
# entries of rows and points: zero often, small, or past 2^64 either way
ENTRIES = st.one_of(st.just(0), st.integers(-3, 3), st.integers(BIG, BIG + 9),
                    st.integers(-BIG - 9, -BIG))
POSITIVE = st.fractions(min_value=Fraction(1, 7), max_value=5, max_denominator=7)
NONNEGATIVE = st.fractions(min_value=0, max_value=5, max_denominator=7)


@st.composite
def tables(draw, extend):
    """A convex PiecewiseTable on a window [lo, hi] around the origin."""
    lo = draw(st.integers(-3, 1))
    hi = draw(st.integers(max(lo, 0), 3))
    left = sorted(-draw(NONNEGATIVE) for _ in range(lo, min(hi, 0) + 1))
    right = sorted(draw(NONNEGATIVE) for _ in range(max(lo, 1), hi + 1))
    return PiecewiseTable(tuple(zip(range(lo, hi + 1), left + right)), extend=extend)


# each piece kind with the arguments it is evaluated at: a geometric
# piece stays near the origin, a window table also steps past its window
PIECES = st.one_of(
    st.tuples(st.just(Zero()), ENTRIES),
    st.tuples(st.builds(ScaledEvenPower, POSITIVE, st.sampled_from((2, 4))), ENTRIES),
    st.tuples(st.builds(ScaledAbs, POSITIVE), ENTRIES),
    st.tuples(st.builds(GeometricAbs, POSITIVE.map(lambda a: 1 + a)), st.integers(-6, 6)),
    st.tuples(tables(extend=True), ENTRIES),
    st.tuples(tables(extend=False), st.integers(-5, 5)),
)


def outcome(evaluate, z):
    """The value with its type, or the ValueError's message."""
    try:
        v = evaluate(z)
    except ValueError as e:
        return "ValueError: %s" % e
    return type(v), v


class TestSupportEvaluation:
    """value works over the supports only; dense_value evaluates every
    term and coordinate."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_matches_dense_evaluation(self, data):
        n = data.draw(st.integers(1, 5), label="n")
        z = tuple(data.draw(st.lists(ENTRIES, min_size=n, max_size=n), label="z"))
        terms = []
        for fn, argument in data.draw(st.lists(PIECES, max_size=4), label="pieces"):
            coeffs = tuple(data.draw(st.lists(ENTRIES, min_size=n, max_size=n)))
            # the offset that puts the argument at z where it was drawn
            offset = argument - sum(c * x for c, x in zip(coeffs, z))
            terms.append(Term(fn, coeffs, offset))
        linear = tuple(data.draw(st.lists(
            st.one_of(st.just(Fraction(0)), st.fractions(max_denominator=9)),
            min_size=n, max_size=n), label="linear"))
        f = SeparableObjective(n, tuple(terms), linear)
        want = outcome(lambda p: dense_value(f, p), z)
        assert want[0] is Fraction or want.startswith("ValueError")
        assert outcome(f.value, z) == want
        for bad in (z + (0,), z[1:]):
            with pytest.raises(ValueError, match="^objective value: point has wrong dimension$"):
                f.value(bad)

    def test_out_of_window_table_raises_as_dense(self):
        g = PiecewiseTable({0: Fraction(-1), 1: Fraction(1), 2: Fraction(3)})
        f = SeparableObjective(2, (Term(g, (1, 0), 0), Term(g, (0, 1), -BIG)),
                               (Fraction(1), Fraction(0)))
        for z in ((3, BIG), (0, BIG + 4)):
            assert outcome(f.value, z) == outcome(lambda p: dense_value(f, p), z)
            assert outcome(f.value, z).startswith("ValueError: PiecewiseTable")
        assert f.value((0, BIG - 1)) == dense_value(f, (0, BIG - 1)) == 1

    def test_composition_matrix_has_each_nonzero_row_once_in_term_order(self):
        f = SeparableObjective(3, (
            Term(ScaledAbs(1), (0, 1, 1), 0), Term(Zero(), (0, 0, 0), 4),
            Term(ScaledEvenPower(2, 2), (1, 0, -1), 1), Term(ScaledAbs(3), (0, 1, 1), -2),
        ), (Fraction(0),) * 3)
        assert f.composition_matrix == IntMatrix(2, 3, ((0, 1, 1), (1, 0, -1)))
        assert f.composition_matrix is f.composition_matrix
        assert linear_objective([1, 2]).composition_matrix == IntMatrix.zero(0, 2)

    def test_supports_are_not_fields(self):
        f = SeparableObjective(2, (Term(ScaledAbs(1), (0, 3), 0),), (Fraction(0), Fraction(2)))
        g = SeparableObjective(2, (Term(ScaledAbs(1), (0, 3), 0),), (Fraction(0), Fraction(2)))
        text, h, r = format_objective(f), hash(f), repr(f)
        assert f.value((1, 1)) == 5
        assert f.composition_matrix == IntMatrix(1, 2, ((0, 3),))
        assert f == g and hash(g) == h and repr(f) == r == repr(g)
        assert format_objective(f) == text


class TestSerialization:
    def round_trip(self, f):
        back = parse_objective(format_objective(f))
        assert back == f

    def test_full_catalog_round_trip(self):
        f = SeparableObjective(2, (
            Term(ScaledEvenPower(Fraction(1, 2), 2), (1, 1), -1),
            Term(ScaledAbs(2), (0, 1), 3),
            Term(GeometricAbs(3), (1, -1), 0),
            Term(Zero(), (1, 0), 0),
            Term(PiecewiseTable({0: Fraction(0), 1: Fraction(1, 3)},
                                extend=True), (1, 1), 0),
        ), (Fraction(1, 2), Fraction(-2)))
        self.round_trip(f)

    def test_linear_only_round_trip(self):
        self.round_trip(linear_objective([Fraction(1, 3), Fraction(0)]))

    def test_format_shape(self):
        text = format_objective(two_square_instance().objective)
        lines = text.splitlines()
        assert lines[0] == "evenpower 1 2 | 1 1 | 0"
        assert lines[-1] == "linear | 0 0"

    @pytest.mark.parametrize("bad", [
        "",                                  # no linear line
        "linear | 1\nzero | 1 | 0",          # term after linear
        "evenpower 1 | 1 | 0\nlinear | 1",   # missing parameter
        "mystery | 1 | 0\nlinear | 1",       # unknown kind
        "zero | 1 1 | 0\nlinear | 1",        # width clash
        "zero | 1 | x\nlinear | 1",          # bad offset
        "table 0:1 1:0 | 1 | 0\nlinear | 1",  # increments decrease
        "table 0:1 1:2 | 1 | 0\nlinear | 1",  # rises left of the origin
    ])
    def test_malformed_rejected(self, bad):
        with pytest.raises(ParseError):
            parse_objective(bad)

    def test_width_clash_has_one_message_on_both_paths(self):
        with pytest.raises(ValueError) as built:
            SeparableObjective(1, (Term(Zero(), (1, 1), 0),), (Fraction(1),))
        with pytest.raises(ParseError) as parsed:
            parse_objective("zero | 1 1 | 0\nlinear | 1\n")
        assert str(parsed.value) == "objective: %s" % built.value

    def test_width_clash_exits_2(self, tmp_path, capsys):
        inst = tmp_path / "i.txt"
        inst.write_text("A\n1 1\n1\nb\n1\nobjective\nzero | 1 1 | 0\nlinear | 0\n")
        start = tmp_path / "z.txt"
        start.write_text("1\n")
        assert main(["solve", str(inst), str(start)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "term coefficients have wrong length" in err

    ALL_KINDS = ("zero | 1 0 | 0\n"
                 "evenpower 1/2 4 | 1 1 | -1\n"
                 "abs 2 | 0 1 | 3\n"
                 "geomabs 3/2 | 1 -1 | 0\n"
                 "table -1:-1 0:0 1:1/3 | 1 1 | 0\n"
                 "table extend 0:0 1:2 | 0 1 | 2\n"
                 "linear | 1/2 -2\n")

    def test_text_round_trip_over_every_kind(self):
        assert format_objective(parse_objective(self.ALL_KINDS)) == self.ALL_KINDS

    # each kind with one parameter token too many
    EXTRA_PARAMETER = ["zero 5", "evenpower 1 2 999", "abs 1 2", "geomabs 2 3",
                       "table extend 0:0 1:1 2"]

    @pytest.mark.parametrize("term", EXTRA_PARAMETER)
    def test_extra_parameter_is_a_parse_error_naming_the_term(self, term):
        with pytest.raises(ParseError, match="objective term '%s'" % term):
            parse_objective("%s | 1 | 0\nlinear | 0\n" % term)

    @pytest.mark.parametrize("term", EXTRA_PARAMETER)
    def test_extra_parameter_exits_2(self, tmp_path, capsys, term):
        inst = tmp_path / "i.txt"
        inst.write_text("A\n1 1\n1\nb\n1\nobjective\n%s | 1 | 0\nlinear | 0\n" % term)
        start = tmp_path / "z.txt"
        start.write_text("1\n")
        assert main(["solve", str(inst), str(start)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert term in err
