"""Quadratic assignment instances as bounded convex integer programs.

An n-facility instance assigns cost d[i][j][k][l] to locating i at j
and k at l (Koopmans-Beckmann data F, D gives d = F_ik * D_jl), plus
per-placement fixed costs.  Encoding: n^2 binary variables x_ij, row
and column sum constraints, and the quadratic cost rewritten exactly
as a separable sum of squares on 0/1 points.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Sequence

from .augment import CipInstance, SolveReport, instance_test_set, solve
from .core import IntMatrix, ParseError, Vec
from .objective import ScaledEvenPower, SeparableObjective, Term
from .quadratic import RatMatrix, binary_rephrase, rat_matrix
from .testset import FAMILY_CACHE_SIZE

_ORACLE_LIMIT = 8  # 8! permutations is the most the oracle will enumerate


@dataclass(frozen=True)
class QapInstance:
    n: int
    flow: RatMatrix | None = None
    distance: RatMatrix | None = None
    tensor: tuple | None = None
    fixed: RatMatrix | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("QapInstance: need n >= 1")
        kb = self.flow is not None and self.distance is not None
        if kb == (self.tensor is not None):
            raise ValueError("QapInstance: give either flow+distance or a tensor")
        for name, m in (("flow", self.flow), ("distance", self.distance),
                        ("fixed", self.fixed)):
            if m is not None and (len(m) != self.n or
                                  any(len(r) != self.n for r in m)):
                raise ValueError("QapInstance: %s matrix must be %d x %d"
                                 % (name, self.n, self.n))

    def cost(self, i: int, j: int, k: int, l: int) -> Fraction:
        """Cost of locating facility i at j while facility k sits at l."""
        if self.tensor is not None:
            return Fraction(self.tensor[i][j][k][l])
        return Fraction(self.flow[i][k]) * Fraction(self.distance[j][l])

    def fixed_cost(self, i: int, j: int) -> Fraction:
        return Fraction(self.fixed[i][j]) if self.fixed is not None else Fraction(0)


def koopmans_beckmann(flow: Sequence[Sequence], distance: Sequence[Sequence],
                      fixed: Sequence[Sequence] | None = None) -> QapInstance:
    return QapInstance(len(flow), flow=rat_matrix(flow),
                       distance=rat_matrix(distance),
                       fixed=rat_matrix(fixed) if fixed is not None else None)


@functools.lru_cache(maxsize=FAMILY_CACHE_SIZE)
def assignment_matrix(n: int) -> tuple[IntMatrix, Vec]:
    """Row-sum and column-sum constraints over the flattened x_ij grid.

    Built once per n (both parts are immutable), so the instances of
    one size share the very same matrix."""
    if n < 1:
        raise ValueError("assignment_matrix: need n >= 1")
    rows = []
    for i in range(n):
        r = [0] * (n * n)
        for j in range(n):
            r[i * n + j] = 1
        rows.append(tuple(r))
    for j in range(n):
        r = [0] * (n * n)
        for i in range(n):
            r[i * n + j] = 1
        rows.append(tuple(r))
    return IntMatrix(2 * n, n * n, tuple(rows)), (1,) * (2 * n)


def permutation_value(q: QapInstance, perm: Sequence[int]) -> Fraction:
    """Objective at the assignment j = perm[i] (0-based images)."""
    n = q.n
    if sorted(perm) != list(range(n)):
        raise ValueError("permutation_value: not a permutation of 0..n-1")
    total = Fraction(0)
    for i in range(n):
        total += q.fixed_cost(i, perm[i])
        for k in range(n):
            total += q.cost(i, perm[i], k, perm[k])
    return total


def permutation_oracle(q: QapInstance) -> tuple[tuple[int, ...], Fraction]:
    """Exhaustive minimum over all permutations; lexicographic tie-break."""
    if q.n > _ORACLE_LIMIT:
        raise ValueError("permutation_oracle: n=%d exceeds the enumeration limit %d"
                         % (q.n, _ORACLE_LIMIT))
    best: tuple[tuple[int, ...], Fraction] | None = None
    for perm in permutations(range(q.n)):
        val = permutation_value(q, perm)
        if best is None or val < best[1]:
            best = (perm, val)
    assert best is not None
    return best


def _exact(x) -> int | Fraction:
    """x as an int if it is integral, else as a Fraction (not a copy)."""
    if isinstance(x, int):
        return x
    f = x if isinstance(x, Fraction) else Fraction(x)
    return f.numerator if f.denominator == 1 else f


def _pairwise(w: list[list], c: Sequence) -> tuple[list, tuple]:
    """z^T (W/2) z + c^T z on 0/1 points for a symmetric W with a
    nonnegative off-diagonal: each positive W[v][u] (v < u) gives the
    term W[v][u]/2 (z_v + z_u)^2, returned as (W[v][u], its row), whose
    square parts join the diagonal in the linear part.  Composition rows
    stay 0/1, keeping test sets small."""
    nn = len(w)
    terms = [(w[v][u], (0,) * v + (1,) + (0,) * (u - v - 1) + (1,) + (0,) * (nn - u - 1))
             for v in range(nn) for u in range(v + 1, nn) if w[v][u] > 0]
    cbar = tuple(Fraction(2 * cv + 2 * row[v] - sum(row), 2)
                 for v, (cv, row) in enumerate(zip(c, w)))
    return terms, cbar


def _squares(terms: Sequence[tuple], denominator: int) -> tuple[Term, ...]:
    """The term (k/denominator) (row . z)^2 for each (k, row), with one
    piece per distinct k, shared by its terms (pieces are frozen)."""
    pieces = {k: ScaledEvenPower(Fraction(k, denominator), 2) for k in {k for k, _ in terms}}
    return tuple(Term(pieces[k], row, 0) for k, row in terms)


def to_cip(q: QapInstance) -> CipInstance:
    """0/1 encoding with the quadratic cost made separable exactly.

    The cost is z^T Q z + fixed^T z, Q the symmetrized cost matrix.
    W = 2Q, W[i*n+j][k*n+l] = cost(i, j, k, l) + cost(k, l, i, j), is
    built in Python ints (Fractions only for rational data) and halved
    once, where a term weight or linear entry is formed; each equals
    its value from Q in Fractions, so the instance is the one Q gives.
    Nonnegative data rephrase pairwise; otherwise binary_rephrase.
    """
    n = q.n
    nn = n * n
    if q.tensor is not None:
        t = [[[[_exact(x) for x in r] for r in b] for b in a] for a in q.tensor]
        w = [[t[i][j][k][l] + t[k][l][i][j] for k in range(n) for l in range(n)]
             for i in range(n) for j in range(n)]
    else:
        f = [[_exact(x) for x in r] for r in q.flow]
        d = [[_exact(x) for x in r] for r in q.distance]
        w = [[f[i][k] * d[j][l] + f[k][i] * d[l][j] for k in range(n) for l in range(n)]
             for i in range(n) for j in range(n)]
    cvec = ((0,) * nn if q.fixed is None else
            tuple(_exact(x) for row in q.fixed for x in row))
    if all(x >= 0 for v, row in enumerate(w) for u, x in enumerate(row) if u != v):
        terms, cbar = _pairwise(w, cvec)
        obj_terms = _squares(terms, 2)
    else:
        terms, cbar = binary_rephrase(
            tuple(tuple(Fraction(x, 2) for x in row) for row in w), cvec)
        obj_terms = _squares(terms, 1)
    a, b = assignment_matrix(n)
    return CipInstance(a, b, (1,) * nn, SeparableObjective(nn, obj_terms, cbar))


def permutation_point(perm: Sequence[int]) -> Vec:
    n = len(perm)
    z = [0] * (n * n)
    for i, j in enumerate(perm):
        z[i * n + j] = 1
    return tuple(z)


def point_permutation(z: Sequence[int], n: int) -> tuple[int, ...]:
    perm = []
    for i in range(n):
        row = [j for j in range(n) if z[i * n + j] == 1]
        if len(row) != 1:
            raise ValueError("point_permutation: not an assignment")
        perm.append(row[0])
    if sorted(perm) != list(range(n)):
        raise ValueError("point_permutation: not an assignment")
    return tuple(perm)


def solve_qap(q: QapInstance, start: Sequence[int] | None = None,
              best: bool = False) -> tuple[tuple[int, ...], Fraction, SolveReport]:
    """Augment from a starting permutation to a globally optimal one.

    The walk only ever moves between 0/1 points, so it runs on the
    0/1-box part of the instance's test set, which instance_test_set
    builds without the full lifted basis.  That set is exact for the
    bounded walk, so it certifies optimality at the walk's endpoint.
    Returns the permutation, its value and the walk's report, in the
    n^2 coordinates x_ij of to_cip.
    """
    inst = to_cip(q)
    perm0 = tuple(start) if start is not None else tuple(range(q.n))
    report = solve(inst, instance_test_set(inst), permutation_point(perm0), best=best)
    return point_permutation(report.optimum, q.n), report.value, report


# ---------------------------------------------------------------------------
# reader for the common exchange layout: n, then the two n x n blocks

def read_qaplib(text: str) -> QapInstance:
    tokens = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        for tok in line.split():
            tokens.append((tok, lineno))
    if not tokens:
        raise ParseError("qap file: empty input")

    def take_int(what: str) -> int:
        if not tokens:
            raise ParseError("qap file: truncated while reading %s" % what)
        tok, lineno = tokens.pop(0)
        try:
            return int(tok)
        except ValueError:
            raise ParseError("qap file: bad integer %r for %s on line %d"
                             % (tok, what, lineno)) from None

    n = take_int("size")
    if n < 1:
        raise ParseError("qap file: size must be positive")
    flow = [[take_int("flow[%d][%d]" % (i, j)) for j in range(n)]
            for i in range(n)]
    dist = [[take_int("distance[%d][%d]" % (i, j)) for j in range(n)]
            for i in range(n)]
    if tokens:
        tok, lineno = tokens[0]
        raise ParseError("qap file: unexpected trailing token %r on line %d"
                         % (tok, lineno))
    return koopmans_beckmann(flow, dist)
