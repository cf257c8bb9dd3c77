"""Seeded instance generators for the benchmark workloads.

Every generator returns plain data (tuples of ints and Fractions), so
the oracles in oracle.py can check a result without going through the
library's own objects.  Only the ``build_*`` helpers, ``walk_family``
and ``composition_rows`` touch the library, to make its input types.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

# The one fixed family of the walk-dense workload: a single sum row and
# four composition rows.  The direction set of this family is built once
# in set-up; per-instance data varies everything else.
WALK_A = ((1, 1, 1, 1, 1),)
WALK_C = (
    (-2, -1, -2, 2, 1),
    (-1, 1, 0, 2, 1),
    (2, -1, 2, -2, -2),
    (1, 2, -1, 2, 2),
)


@dataclass(frozen=True)
class CipSpec:
    """min sum alpha_i (c_i . z + off_i)^2 + lin . z, Az = b, 0 <= z <= upper.

    ``box`` bounds every coordinate of the feasible set, so the oracle
    can enumerate it; it equals ``upper`` when the instance has bounds.
    """

    a: tuple[tuple[int, ...], ...]
    n: int
    b: tuple[int, ...]
    upper: tuple[int, ...] | None
    box: tuple[int, ...]
    terms: tuple[tuple[Fraction, tuple[int, ...], int], ...]
    linear: tuple[Fraction, ...]
    start: tuple[int, ...]
    best: bool = False


@dataclass(frozen=True)
class QapSpec:
    flow: tuple[tuple[int, ...], ...]
    distance: tuple[tuple[int, ...], ...]


def _mat_vec(a, z):
    return tuple(sum(x * y for x, y in zip(row, z)) for row in a)


def _primitive(row):
    """Primitive integer vector c (first nonzero positive), kappa with row = kappa*c."""
    denom = 1
    for x in row:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) for x in row]
    g = 0
    for v in ints:
        g = gcd(g, v)
    ints = [v // g for v in ints]
    lead = next(v for v in ints if v)
    sign = 1 if lead > 0 else -1
    return tuple(sign * v for v in ints), Fraction(sign * g, denom)


def sum_of_squares(q):
    """Exact LDL^T of a PSD integer matrix as terms (alpha, integer row).

    z^T q z = sum alpha (row . z)^2; zero pivots of a PSD matrix carry a
    zero column and are skipped.
    """
    n = len(q)
    low = [[Fraction(0)] * n for _ in range(n)]
    d = [Fraction(0)] * n
    for k in range(n):
        d[k] = Fraction(q[k][k]) - sum(low[k][j] ** 2 * d[j] for j in range(k))
        low[k][k] = Fraction(1)
        for i in range(k + 1, n):
            if d[k]:
                s = Fraction(q[i][k]) - sum(low[i][j] * low[k][j] * d[j] for j in range(k))
                low[i][k] = s / d[k]
    terms = []
    for k in range(n):
        if d[k]:
            row, kappa = _primitive([low[i][k] for i in range(n)])
            terms.append((d[k] * kappa * kappa, row))
    return terms


# Completion cost depends only on (A, C), and over random (A, C) it is
# heavy-tailed: one of the 50 criterion-8 shapes takes about 78% of their
# total.  Drawing (A, C) per seed would make a run's throughput hinge on
# whether it met such a shape.  So the shapes come from fixed streams,
# seeded by the first constant of each pair: pass p of every run takes
# the same next (second constant) shapes, and no shape repeats within a
# pass.  The run's seed draws the rest of every instance (weights,
# offsets, linear part, bounds, start) and the order of each pass.
LIFT_POOL = (4242, 24)
QP_POOL = (108, 50)
QAP_POOL = (2026, 20)
WALK_PASS = 40


def lift_shapes():
    """(a row, C rows): one positive row over 5 columns, 3 rows in -2..2.

    A row of 1-norm above 6 is redrawn, as the acceptance battery redraws
    oversized squares: without the cap two shapes in twenty take 60% of
    the pool's time, and a run would see few instances.
    """
    rng = random.Random(LIFT_POOL[0])
    while True:
        a_row = tuple(rng.randint(1, 2) for _ in range(5))
        c = []
        while len(c) < 3:
            row = tuple(rng.randint(-2, 2) for _ in range(5))
            if 0 < sum(abs(x) for x in row) <= 6:
                c.append(row)
        yield a_row, tuple(c)


def lift_instance(shape, rng: random.Random) -> CipSpec:
    """No upper bounds: the fibre is the simplex a . z = b, which the
    oracle enumerates over [0, b // a_j]."""
    a_row, c = shape
    n = len(a_row)
    terms = tuple((Fraction(rng.randint(1, 4), rng.randint(1, 2)), row,
                   rng.randint(-3, 3)) for row in c)
    linear = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n))
    start = tuple(rng.randint(0, 3) for _ in range(n))
    b = _mat_vec((a_row,), start)
    box = tuple(b[0] // x for x in a_row)
    return CipSpec((a_row,), n, b, None, box, terms, linear, start)


def qp_shapes():
    """(n, square terms, A) of the acceptance battery's 50 bounded
    quadratics: PSD squares whose integerized rows stay within 6, zero or
    one equality row in -1..2.  The draws discarded here keep the random
    stream, and so the shapes, identical to that battery's."""
    rng = random.Random(QP_POOL[0])
    while True:
        n = rng.randint(2, 4)
        while True:
            bm = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            q = [[sum(bm[k][x] * bm[k][y] for k in range(n)) for y in range(n)]
                 for x in range(n)]
            sos = sum_of_squares(q)
            if max((max(abs(x) for x in row) for _, row in sos), default=0) <= 6:
                break
        for _ in range(n):
            rng.randint(-3, 3)
        for _ in sos:
            rng.randint(-1, 1)
        a = tuple(tuple(rng.randint(-1, 2) for _ in range(n))
                  for _ in range(rng.randint(0, 1)))
        for u in [rng.randint(1, 3) for _ in range(n)]:
            rng.randint(0, u)
        yield n, tuple(sos), a


def qp_instance(shape, rng: random.Random) -> CipSpec:
    n, sos, a = shape
    terms = tuple((alpha, row, rng.randint(-1, 1)) for alpha, row in sos)
    linear = tuple(Fraction(rng.randint(-3, 3)) for _ in range(n))
    upper = tuple(rng.randint(1, 3) for _ in range(n))
    start = tuple(rng.randint(0, u) for u in upper)
    return CipSpec(a, n, _mat_vec(a, start), upper, upper, terms, linear, start)


def qap_shapes():
    """Zero patterns of hollow 3x3 flow and distance matrices, entries 0..5.

    The composition rows of the 0/1 encoding depend only on which
    entries are zero, so the pattern fixes the direction set.
    """
    rng = random.Random(QAP_POOL[0])

    def hollow():
        return tuple(tuple(i != k and rng.randint(0, 5) > 0 for k in range(3))
                     for i in range(3))
    while True:
        yield hollow(), hollow()


def qap_instance(shape, rng: random.Random) -> QapSpec:
    """Nonzero entries drawn from 1..5 on the pattern's support."""
    def fill(mask):
        return tuple(tuple(rng.randint(1, 5) if m else 0 for m in row) for row in mask)
    flow, distance = shape
    return QapSpec(fill(flow), fill(distance))


def walk_instance(rng: random.Random, index: int) -> CipSpec:
    """An instance of the fixed WALK_A / WALK_C family.

    Weights, offsets, linear part, bounds and start vary; even and odd
    instances use first- and best-improving scans.
    """
    n = len(WALK_A[0])
    terms = tuple((Fraction(rng.randint(1, 6), rng.randint(1, 3)), row,
                   rng.randint(-4, 4)) for row in WALK_C)
    linear = tuple(Fraction(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(n))
    upper = tuple(rng.randint(1, 10) for _ in range(n))
    start = tuple(rng.randint(0, u) for u in upper)
    return CipSpec(WALK_A, n, _mat_vec(WALK_A, start), upper, upper, terms,
                   linear, start, best=bool(index % 2))


def build_cip(spec: CipSpec):
    """The library instance for a spec."""
    from graveropt import (CipInstance, IntMatrix, ScaledEvenPower,
                           SeparableObjective, Term)
    a = IntMatrix(len(spec.a), spec.n, spec.a)
    obj = SeparableObjective(spec.n, tuple(
        Term(ScaledEvenPower(alpha, 2), row, off) for alpha, row, off in spec.terms),
        spec.linear)
    return CipInstance(a, spec.b, spec.upper, obj)


def composition_rows(spec: CipSpec):
    """C for compute_test_set: the distinct term rows, in term order."""
    from graveropt import IntMatrix
    rows = list(dict.fromkeys(row for _, row, _ in spec.terms))
    return IntMatrix(len(spec.a), spec.n, spec.a), IntMatrix(len(rows), spec.n, tuple(rows))


def walk_family():
    """(A, C) of the walk-dense family as library matrices."""
    from graveropt import IntMatrix
    return (IntMatrix(len(WALK_A), len(WALK_A[0]), WALK_A),
            IntMatrix(len(WALK_C), len(WALK_C[0]), WALK_C))


def build_qap(spec: QapSpec):
    from graveropt import koopmans_beckmann
    return koopmans_beckmann([list(r) for r in spec.flow],
                             [list(r) for r in spec.distance])
