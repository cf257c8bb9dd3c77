"""Shared builders for the test suite."""

from fractions import Fraction

import pytest

from graveropt import testset
from graveropt.augment import CipInstance
from graveropt.core import IntMatrix
from graveropt.objective import ScaledEvenPower, SeparableObjective, Term


def two_square_instance() -> CipInstance:
    """min (x+y)^2 + 4(x-y)^2 over nonnegative integer pairs."""
    obj = SeparableObjective(2, (
        Term(ScaledEvenPower(1, 2), (1, 1), 0),
        Term(ScaledEvenPower(4, 2), (1, -1), 0),
    ), (Fraction(0), Fraction(0)))
    return CipInstance(IntMatrix.zero(0, 2), (), None, obj)


def clear_box_caches() -> None:
    """Empty box_test_set's caches of family sets and of candidates."""
    testset._box_family.cache_clear()
    testset._box_candidates.cache_clear()


@pytest.fixture(autouse=True)
def cold_box_caches():
    """Every test starts with box_test_set's caches empty, so no test
    sees a set another one built, nor misses a build it means to run."""
    clear_box_caches()


@pytest.fixture
def square_pair():
    return two_square_instance()


def random_int_matrix(rng, rows, cols, lo=-2, hi=2) -> IntMatrix:
    return IntMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)],
        cols=cols)
