"""Exact diagonalization and the 0/1 rephrasing of quadratics."""

import random
from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from graveropt.core import ParseError
from graveropt.quadratic import (binary_identity_holds, binary_rephrase,
                                 choose_lambda_bar, congruence_diagonalize,
                                 gershgorin_shift,
                                 is_positive_definite, is_psd, parse_rat_matrix,
                                 parse_rat_vector, rat_matrix, reconstruct,
                                 to_separable)
from tests.helpers import rat_mat_mul

# 3x3 fixtures: HOLLOW3 is indefinite with a zero diagonal, SPD3 is
# identity plus all-ones (eigenvalues 1, 1, 4)
HOLLOW3 = rat_matrix([[0, 1, 1], [1, 0, 2], [1, 2, 0]])
SPD3 = rat_matrix([[2, 1, 1], [1, 2, 1], [1, 1, 2]])
ID2 = rat_matrix([[1, 0], [0, 1]])


def congruence_product(u, d):
    """U^T diag(d) U in exact rational arithmetic."""
    n = len(u)
    return rat_matrix([[sum((u[k][i] * d[k] * u[k][j] for k in range(n)),
                            Fraction(0))
                        for j in range(n)] for i in range(n)])


def quad_value(q, c, z):
    n = len(q)
    tot = sum((q[i][j] * z[i] * z[j] for i in range(n) for j in range(n)),
              Fraction(0))
    return tot + sum((Fraction(c[i]) * z[i] for i in range(n)), Fraction(0))


def terms_value(terms, cbar, z):
    tot = Fraction(0)
    for alpha, cv in terms:
        s = sum(x * y for x, y in zip(cv, z))
        tot += alpha * s * s
    return tot + sum((cb * x for cb, x in zip(cbar, z)), Fraction(0))


def random_symmetric(rng, n, lo=-2, hi=2):
    vals = [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]
    return rat_matrix([[vals[i][j] if i <= j else vals[j][i]
                        for j in range(n)] for i in range(n)])


def random_psd(rng, n, rows=None):
    b = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rows or n)]
    return rat_matrix([[sum(b[k][i] * b[k][j] for k in range(len(b)))
                        for j in range(n)] for i in range(n)])


class TestCongruenceDiagonalize:
    def test_identity_fixed_point(self):
        u, d = congruence_diagonalize(ID2)
        assert u == ID2
        assert d == (1, 1)

    def test_spd_reconstruction(self):
        u, d = congruence_diagonalize(SPD3)
        assert congruence_product(u, d) == SPD3
        assert all(x > 0 for x in d)

    def test_zero_diagonal_splits_signs(self):
        # det = -1 forces one positive and one negative entry
        q = rat_matrix([[0, 1], [1, 0]])
        u, d = congruence_diagonalize(q)
        assert congruence_product(u, d) == q
        assert sorted(x > 0 for x in d) == [False, True]

    def test_random_reconstruction(self):
        rng = random.Random(5)
        for _ in range(25):
            q = random_symmetric(rng, rng.randint(1, 4))
            u, d = congruence_diagonalize(q)
            assert congruence_product(u, d) == q

    def test_rejects_asymmetry(self):
        with pytest.raises(ValueError):
            congruence_diagonalize(rat_matrix([[1, 2], [3, 4]]))


class TestPsdChecks:
    def test_spd_matrix(self):
        assert is_psd(SPD3)
        assert is_positive_definite(SPD3)

    def test_indefinite_matrix(self):
        assert not is_psd(rat_matrix([[0, 1], [1, 0]]))

    def test_zero_matrix(self):
        assert is_psd(rat_matrix([[0, 0], [0, 0]]))
        assert not is_positive_definite(rat_matrix([[0, 0], [0, 0]]))

    def test_psd_rank_deficient(self):
        assert is_psd(rat_matrix([[1, 1], [1, 1]]))
        assert not is_positive_definite(rat_matrix([[1, 1], [1, 1]]))


class TestInertia:
    @staticmethod
    def inertia(q):
        # (positive, zero, negative) counts of the congruence diagonal
        _, d = congruence_diagonalize(q)
        return (sum(x > 0 for x in d), sum(x == 0 for x in d), sum(x < 0 for x in d))

    def test_pinned_counts(self):
        assert self.inertia(rat_matrix([[0, 1], [1, 0]])) == (1, 0, 1)
        assert self.inertia(SPD3) == (3, 0, 0)
        assert self.inertia(rat_matrix([[0, 0], [0, 0]])) == (0, 2, 0)
        assert self.inertia(rat_matrix([[-1, 0], [0, -2]])) == (0, 0, 2)


class TestToSeparable:
    def test_scalar(self):
        assert to_separable(rat_matrix([[2]])) == ((Fraction(2), (1,)),)

    def test_rank_one(self):
        assert to_separable(rat_matrix([[1, 1], [1, 1]])) == ((Fraction(1), (1, 1)),)

    def test_spd_identity_and_term_bound(self):
        terms = to_separable(SPD3)
        assert len(terms) <= 3
        assert reconstruct(terms, 3) == SPD3
        assert all(alpha > 0 for alpha, _ in terms)

    def test_random_psd_reconstruction(self):
        rng = random.Random(23)
        for _ in range(25):
            n = rng.randint(1, 4)
            q = random_psd(rng, n, rows=rng.randint(1, n + 1))
            terms = to_separable(q)
            assert reconstruct(terms, n) == q
            assert len(terms) <= n
            for alpha, c in terms:
                assert alpha > 0
                g = 0
                for x in c:
                    g = gcd(g, x)
                assert g == 1

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            to_separable(rat_matrix([[0, 1], [1, 0]]))


class TestChooseLambdaBar:
    def test_already_definite(self):
        assert choose_lambda_bar(rat_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 0

    def test_hyperbolic_needs_more_than_one(self):
        q = rat_matrix([[0, 1], [1, 0]])
        lam = choose_lambda_bar(q)
        assert lam > 1
        shifted = rat_matrix([[lam, 1], [1, lam]])
        assert is_positive_definite(shifted)

    def test_zero_matrix(self):
        lam = choose_lambda_bar(rat_matrix([[0, 0], [0, 0]]))
        assert lam > 0
        assert is_positive_definite(rat_matrix([[lam, 0], [0, lam]]))

    def test_random_shift_is_definite(self):
        rng = random.Random(3)
        for _ in range(15):
            n = rng.randint(1, 4)
            q = random_symmetric(rng, n)
            lam = choose_lambda_bar(q)
            shifted = rat_matrix([[q[i][j] + (lam if i == j else 0)
                                   for j in range(n)] for i in range(n)])
            assert is_positive_definite(shifted)

    def test_shift_is_zero_g_or_2g(self):
        # the smallest of 0, g, 2g (g the Gershgorin deficit, or 1) that
        # makes Q + shift*I positive definite; 2g always does
        rng = random.Random(11)
        seen = set()
        for _ in range(300):
            n = rng.randint(1, 5)
            vals = [[Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)]
                    for _ in range(n)]
            q = rat_matrix([[vals[min(i, j)][max(i, j)] for j in range(n)]
                            for i in range(n)])
            g = gershgorin_shift(q) or Fraction(1)
            lam = choose_lambda_bar(q)
            shifts = [Fraction(0), g, 2 * g]
            assert lam in shifts
            seen.add(shifts.index(lam))
            for cand in shifts:
                shifted = rat_matrix([[q[i][j] + (cand if i == j else 0)
                                       for j in range(n)] for i in range(n)])
                assert is_positive_definite(shifted) == (cand >= lam), (q, cand)
        assert seen == {0, 1, 2}


class TestBinaryRephrase:
    def binary_check(self, q, c, terms, cbar):
        n = len(q)
        for z in product((0, 1), repeat=n):
            zf = tuple(Fraction(x) for x in z)
            assert quad_value(q, c, zf) == terms_value(terms, cbar, zf)

    def test_hollow_matrix_identity(self):
        terms, cbar = binary_rephrase(HOLLOW3)
        assert all(alpha > 0 for alpha, _ in terms)
        self.binary_check(HOLLOW3, (0, 0, 0), terms, cbar)
        assert binary_identity_holds(HOLLOW3, (0, 0, 0), terms, cbar)

    def test_pure_diagonal_absorbs_fully(self):
        q = rat_matrix([[-1, 0], [0, -2]])
        terms, cbar = binary_rephrase(q)
        assert terms == ()
        assert cbar == (Fraction(-1), Fraction(-2))

    def test_rejects_bad_linear_length(self):
        with pytest.raises(ValueError):
            binary_rephrase(ID2, c=(1,))

    def test_random_exhaustive_identity(self):
        rng = random.Random(17)
        for _ in range(30):
            n = rng.randint(1, 4)
            q = random_symmetric(rng, n)
            c = tuple(rng.randint(-2, 2) for _ in range(n))
            terms, cbar = binary_rephrase(q, c)
            assert all(alpha > 0 for alpha, _ in terms)
            self.binary_check(q, c, terms, cbar)
            assert binary_identity_holds(q, c, terms, cbar)

    def test_psd_input_keeps_linear_part(self):
        terms, cbar = binary_rephrase(SPD3, c=(1, 0, -1))
        assert cbar == (Fraction(1), Fraction(0), Fraction(-1))
        self.binary_check(SPD3, (1, 0, -1), terms, cbar)


class TestEndToEndQuadratic:
    def test_separable_solve_matches_brute_force(self):
        from graveropt.augment import (CipInstance, brute_force_optimum,
                                       instance_test_set, solve)
        from graveropt.core import IntMatrix
        from graveropt.objective import (ScaledEvenPower, SeparableObjective,
                                         Term)
        rng = random.Random(29)
        for _ in range(6):
            n = rng.randint(2, 3)
            q = random_psd(rng, n)
            cvec = tuple(Fraction(rng.randint(-3, 3)) for _ in range(n))
            obj = SeparableObjective(
                n, tuple(Term(ScaledEvenPower(alpha, 2), c, 0)
                         for alpha, c in to_separable(q)), cvec)
            inst = CipInstance(IntMatrix(0, n, ()), (), (4,) * n, obj)
            _, best_val = brute_force_optimum(inst, (4,) * n)
            report = solve(inst, instance_test_set(inst), (0,) * n)
            assert report.value == best_val


class TestRationalFormat:
    def test_round_trip(self):
        q = rat_matrix([[Fraction(1, 2), 2], [2, Fraction(-3, 4)]])
        assert parse_rat_matrix("2 2\n1/2 2\n2 -3/4\n") == q

    def test_parse_vector(self):
        assert parse_rat_vector("1/2 -3 0") == (Fraction(1, 2), -3, 0)

    def test_bad_header(self):
        with pytest.raises(ParseError):
            parse_rat_matrix("x y\n1 2\n")

    def test_wrong_count(self):
        with pytest.raises(ParseError):
            parse_rat_matrix("2 2\n1 2 3\n")

    @pytest.mark.parametrize("bad", ["-1 -1\n5\n", "-1 2\n", "2 0\n", "0 0\n"])
    def test_invalid_shape(self, bad):
        with pytest.raises(ParseError, match="invalid shape"):
            parse_rat_matrix(bad)

    def test_bad_entry(self):
        with pytest.raises(ParseError):
            parse_rat_matrix("1 2\n1 q\n")

    def test_zero_denominator(self):
        with pytest.raises(ParseError):
            parse_rat_matrix("1 1\n1/0\n")


class TestRationalHelpers:
    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            rat_matrix([[1, 2], [3]])

    def test_mismatched_product_rejected(self):
        with pytest.raises(ValueError):
            rat_mat_mul(rat_matrix([[1, 2]]), rat_matrix([[1, 2]]))
