import random
from fractions import Fraction
from itertools import product

import pytest

from graveropt.core import (
    IntMatrix,
    ParseError,
    canonical_rep,
    conformal_leq,
    dot,
    euclid_reduce,
    format_int_matrix,
    kernel_lattice_basis,
    negate,
    parse_int_matrix,
    parse_int_vector,
)
from tests.conftest import random_int_matrix
from tests.helpers import exact_rank


class TestConformalOrder:
    def test_dominance(self):
        assert conformal_leq((1, 0), (2, 1))

    def test_sign_clash(self):
        assert not conformal_leq((1, -1), (1, 1))

    def test_zero_below_everything(self):
        assert conformal_leq((0, 0), (5, -7))

    def test_magnitude_clash(self):
        assert not conformal_leq((3, 0), (2, 0))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            conformal_leq((1,), (1, 2))

    def test_partial_order_on_random_triples(self):
        rng = random.Random(3)
        vecs = [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(40)]
        for u in vecs:
            assert conformal_leq(u, u)
        for u, v in product(vecs, repeat=2):
            if conformal_leq(u, v) and conformal_leq(v, u):
                assert u == v
        for u, v, w in zip(vecs, vecs[1:], vecs[2:]):
            if conformal_leq(u, v) and conformal_leq(v, w):
                assert conformal_leq(u, w)


class TestCanonicalRep:
    @pytest.mark.parametrize("v,want", [
        ((0, -1, 1), (0, 1, -1)),
        ((1, -1, 0), (1, -1, 0)),
        ((-2, 3), (2, -3)),
    ])
    def test_pinned(self, v, want):
        assert canonical_rep(v) == want

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            canonical_rep((0, 0, 0))

    def test_idempotent_and_sign_blind(self):
        rng = random.Random(5)
        for _ in range(50):
            v = tuple(rng.randint(-4, 4) for _ in range(4))
            if not any(v):
                continue
            c = canonical_rep(v)
            assert canonical_rep(c) == c
            assert canonical_rep(negate(v)) == c
            assert next(x for x in c if x) > 0


class TestVectorOps:
    def test_arithmetic(self):
        assert negate((1, -2, 0)) == (-1, 2, 0)
        assert dot((1, 2, 3), (4, 5, 6)) == 32

    def test_dot_mismatch(self):
        with pytest.raises(ValueError):
            dot((1,), (1, 2))


class TestIntMatrix:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            IntMatrix(1, 0, ((),))
        with pytest.raises(ValueError):
            IntMatrix(2, 2, ((1, 2),))
        with pytest.raises(ValueError):
            IntMatrix(1, 2, ((1, 2, 3),))

    def test_zero_rows_allowed(self):
        a = IntMatrix.zero(0, 3)
        assert a.rows == 0 and a.cols == 3
        assert a.mat_vec((1, 2, 3)) == ()

    def test_from_rows_infers_cols(self):
        a = IntMatrix.from_rows([[1, 2, 3]])
        assert (a.rows, a.cols) == (1, 3)
        with pytest.raises(ValueError):
            IntMatrix.from_rows([])

    def test_from_rows_refuses_a_float(self):
        # int() would truncate 1.5 to 1 and build another matrix
        with pytest.raises(ValueError):
            IntMatrix.from_rows([[1.5, 2, -3]])
        assert IntMatrix.from_rows([(1, True, -3)]).entries == ((1, 1, -3),)

    def test_identity_and_accessors(self):
        e = IntMatrix.identity(3)
        assert e.row(1) == (0, 1, 0)
        assert e.column(2) == (0, 0, 1)
        assert e.mat_vec((4, 5, 6)) == (4, 5, 6)


def lattice_coords(basis, v):
    """Rational coordinates of v in span(basis), or None if outside."""
    if not basis:
        return None if any(v) else []
    n = len(v)
    work = [[Fraction(basis[k][i]) for k in range(len(basis))] + [Fraction(v[i])]
            for i in range(n)]
    piv_cols = []
    r = 0
    for j in range(len(basis)):
        piv = next((i for i in range(r, n) if work[i][j]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        prow = work[r]
        for i in range(n):
            if i != r and work[i][j]:
                f = work[i][j] / prow[j]
                work[i] = [x - f * y for x, y in zip(work[i], prow)]
        piv_cols.append(j)
        r += 1
    if any(row[-1] for row in work[r:]):
        return None
    coords = [Fraction(0)] * len(basis)
    for i, j in enumerate(piv_cols):
        coords[j] = work[i][-1] / work[i][j]
    return coords


class TestKernelLatticeBasis:
    def test_full_lattice(self):
        assert set(kernel_lattice_basis(IntMatrix.zero(0, 2))) == {(1, 0), (0, 1)}

    def test_difference_matrix(self):
        assert set(kernel_lattice_basis(IntMatrix.from_rows([[1, -1]]))) == {(1, 1)}

    def test_sum_matrix_rank(self):
        a = IntMatrix.from_rows([[1, 1, 1]])
        basis = kernel_lattice_basis(a)
        assert len(basis) == 2
        for v in basis:
            assert a.mat_vec(v) == (0,)
        assert exact_rank(IntMatrix.from_rows(basis)) == 2

    def test_trivial_kernel(self):
        assert kernel_lattice_basis(IntMatrix.from_rows([[1, 0], [0, 1]])) == []

    def test_generates_every_boxed_kernel_vector(self):
        rng = random.Random(9)
        for _ in range(8):
            a = random_int_matrix(rng, rng.randint(1, 2), rng.randint(2, 4))
            basis = kernel_lattice_basis(a)
            for v in basis:
                assert not any(a.mat_vec(v))
            for v in product(range(-3, 4), repeat=a.cols):
                if any(a.mat_vec(v)):
                    continue
                coords = lattice_coords(basis, v)
                assert coords is not None, (a.entries, v)
                assert all(c.denominator == 1 for c in coords), (a.entries, v)


def fraction_det(m):
    """Determinant of a square matrix by Gaussian elimination over Fraction."""
    work = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for j in range(len(work)):
        piv = next((i for i in range(j, len(work)) if work[i][j]), None)
        if piv is None:
            return Fraction(0)
        if piv != j:
            work[j], work[piv] = work[piv], work[j]
            det = -det
        det *= work[j][j]
        for i in range(j + 1, len(work)):
            f = work[i][j] / work[j][j]
            work[i] = [x - f * y for x, y in zip(work[i], work[j])]
    return det


class TestEuclidReduce:
    def test_one_live_row_left_by_a_unimodular_transform(self):
        # rows [old row i | e_i]: the identity block becomes the transform
        # T, and new rows = T * old rows
        rng = random.Random(17)
        for _ in range(300):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            old = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            rows = [r + [int(i == j) for j in range(m)] for i, r in enumerate(old)]
            live = sorted(rng.sample(range(m), rng.randint(0, m)))
            k = rng.randrange(n)
            got = euclid_reduce(rows, live, k)
            assert [i for i in live if rows[i][k]] == ([] if got is None else [got])
            t = [r[n:] for r in rows]
            assert abs(fraction_det(t)) == 1
            assert [[Fraction(x) for x in r[:n]] for r in rows] == [
                [sum((Fraction(c) * old[l][j] for l, c in enumerate(tr)), Fraction(0))
                 for j in range(n)] for tr in t]
            # rows outside live are left alone
            for i in set(range(m)) - set(live):
                assert rows[i] == old[i] + [int(i == j) for j in range(m)]


class TestExactRank:
    def test_known_ranks(self):
        assert exact_rank(IntMatrix.identity(3)) == 3
        assert exact_rank(IntMatrix.zero(2, 2)) == 0
        assert exact_rank(IntMatrix.from_rows([[1, 2], [2, 4]])) == 1
        assert exact_rank(IntMatrix.zero(0, 4)) == 0


class TestTextFormat:
    def test_round_trip(self):
        a = IntMatrix.from_rows([[1, -2, 3], [0, 5, -6]])
        assert parse_int_matrix(format_int_matrix(a)) == a

    def test_empty_matrix_round_trip(self):
        a = IntMatrix.zero(0, 3)
        text = format_int_matrix(a)
        assert text == "0 3\n"
        assert parse_int_matrix(text) == a

    def test_header_layout(self):
        assert format_int_matrix(IntMatrix.from_rows([[7]])) == "1 1\n7\n"

    @pytest.mark.parametrize("bad", [
        "", "3", "x y\n1 2", "1 2\n1", "1 2\n1 2 3", "1 1\nfoo", "1 0\n", "-1 2\n",
    ])
    def test_malformed_rejected(self, bad):
        with pytest.raises(ParseError):
            parse_int_matrix(bad)

    def test_vector_round_trip(self):
        assert parse_int_vector("3 -1 0\n") == (3, -1, 0)
        with pytest.raises(ParseError):
            parse_int_vector("1 two 3")
