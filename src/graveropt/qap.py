"""Quadratic assignment instances as bounded convex integer programs.

An n-facility instance assigns cost d[i][j][k][l] to locating i at j
and k at l (Koopmans-Beckmann data F, D gives d = F_ik * D_jl), plus
per-placement fixed costs, held as nested tuples of ints where integral
and Fractions otherwise, checked for shape once.  Encoding: n^2 binary
variables x_ij, row and column sum constraints, and the quadratic cost
rewritten exactly on 0/1 points as one square per nonzero pair.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from operator import index
from typing import Sequence

from .augment import CipInstance, SolveReport, instance_test_set, solve
from .core import IntMatrix, ParseError, Vec
from .objective import ScaledEvenPower, SeparableObjective, Term
from .testset import FAMILY_CACHE_SIZE

_ORACLE_LIMIT = 8  # 8! permutations is the most the oracle will enumerate


@dataclass(frozen=True)
class QapInstance:
    n: int
    flow: tuple | None = None
    distance: tuple | None = None
    tensor: tuple | None = None
    fixed: tuple | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("QapInstance: need n >= 1")
        kb = self.flow is not None and self.distance is not None
        if kb == (self.tensor is not None):
            raise ValueError("QapInstance: give either flow+distance or a tensor")
        for name, axes in (("flow", 2), ("distance", 2), ("tensor", 4), ("fixed", 2)):
            data = getattr(self, name)
            if data is not None:
                exact = _exact_array(data, self.n, axes)
                if exact is None:
                    raise ValueError("QapInstance: %s must be %s"
                                     % (name, " x ".join([str(self.n)] * axes)))
                object.__setattr__(self, name, exact)

    def cost(self, i: int, j: int, k: int, l: int) -> Fraction:
        """Cost of locating facility i at j while facility k sits at l."""
        if self.tensor is not None:
            return Fraction(self.tensor[i][j][k][l])
        return Fraction(self.flow[i][k] * self.distance[j][l])

    def fixed_cost(self, i: int, j: int) -> Fraction:
        return Fraction(self.fixed[i][j]) if self.fixed is not None else Fraction(0)


def _exact(x) -> int | Fraction:
    """x as an int if it is integral, else as a Fraction (not a copy)."""
    if isinstance(x, int):
        return x
    f = x if isinstance(x, Fraction) else Fraction(x)
    return f.numerator if f.denominator == 1 else f


def _exact_array(data, n: int, axes: int) -> tuple | None:
    """data as nested tuples of _exact entries, or None unless it is
    n x ... x n over the given number of axes."""
    if not hasattr(data, "__len__") or len(data) != n:
        return None
    rows = tuple(map(_exact, data) if axes == 1 else
                 (_exact_array(x, n, axes - 1) for x in data))
    return None if None in rows else rows


def koopmans_beckmann(flow: Sequence[Sequence], distance: Sequence[Sequence],
                      fixed: Sequence[Sequence] | None = None) -> QapInstance:
    return QapInstance(len(flow), flow=flow, distance=distance, fixed=fixed)


@functools.lru_cache(maxsize=FAMILY_CACHE_SIZE)
def assignment_matrix(n: int) -> tuple[IntMatrix, Vec]:
    """Row-sum and column-sum constraints over the flattened x_ij grid.

    Built once per n (both parts are immutable), so the instances of
    one size share the very same matrix."""
    if n < 1:
        raise ValueError("assignment_matrix: need n >= 1")
    rows = [tuple(int(v // n == i) for v in range(n * n)) for i in range(n)]
    rows += [tuple(int(v % n == j) for v in range(n * n)) for j in range(n)]
    return IntMatrix(2 * n, n * n, tuple(rows)), (1,) * (2 * n)


def _permutation(perm: Sequence[int], n: int, caller: str) -> tuple[int, ...]:
    """perm as a tuple of ints; a ValueError, naming caller, unless it is
    a permutation of 0..n-1."""
    try:
        ints = tuple(map(index, perm))
        if sorted(ints) == list(range(n)):
            return ints
    except TypeError:
        pass
    raise ValueError("%s: not a permutation of 0..n-1" % caller)


def permutation_value(q: QapInstance, perm: Sequence[int]) -> Fraction:
    """Objective at the assignment j = perm[i] (0-based images)."""
    n = q.n
    perm = _permutation(perm, n, "permutation_value")
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


@functools.lru_cache(maxsize=FAMILY_CACHE_SIZE)
def _unit_pairs(n: int) -> tuple[tuple[int, int, int, int, int, int, Vec, Vec], ...]:
    """Each pair v = i*n+j < u = k*n+l of the flattened grid as
    (v, u, i, j, k, l, e_v + e_u, e_v - e_u), v then u ascending.

    Built once per n, so the terms of every instance of that size share
    the very same rows, and with them their supports."""
    nn = n * n

    def row(v: int, u: int, s: int) -> Vec:
        return (0,) * v + (1,) + (0,) * (u - v - 1) + (s,) + (0,) * (nn - u - 1)
    return tuple((v, u, *divmod(v, n), *divmod(u, n), row(v, u, 1), row(v, u, -1))
                 for v in range(nn) for u in range(v + 1, nn))


@functools.lru_cache(maxsize=FAMILY_CACHE_SIZE)
def _piece(k: int | Fraction) -> ScaledEvenPower:
    """The frozen piece (k/2) x^2, one per distinct weight k; k comes as
    _exact gives it, since the cache keys an int apart from the equal
    Fraction."""
    return ScaledEvenPower(Fraction(k, 2), 2)


def _pairwise(n: int, w, diagonal: list, c: Sequence) -> SeparableObjective:
    """z^T (W/2) z + c^T z on 0/1 points, W = 2Q symmetric, in one pass
    over W's upper triangle: w(i, j, k, l) is W[i*n+j][k*n+l] and
    diagonal[v] is W[v][v].  Each nonzero W[v][u] (v < u), of sign s,
    gives the term |W[v][u]|/2 (z_v + s z_u)^2.  Its square parts are
    linear on 0/1 points (z^2 = z), so the linear part is
    c_v + W[v][v]/2 - sum over u != v of |W[v][u]|/2.  The rows
    (_unit_pairs) and the piece of each weight (_piece) are shared
    across instances, as they are frozen; rows stay in {0, 1, -1},
    keeping test sets small."""
    mass = [2 * cv + x for cv, x in zip(c, diagonal)]
    terms = []
    for v, u, i, j, k, l, plus, minus in _unit_pairs(n):
        x = w(i, j, k, l)
        if x:
            if x < 0:
                x, plus = -x, minus
            mass[v] -= x
            mass[u] -= x
            terms.append(Term(_piece(_exact(x)), plus, 0))
    return SeparableObjective(n * n, tuple(terms), tuple(Fraction(m, 2) for m in mass))


def to_cip(q: QapInstance) -> CipInstance:
    """0/1 encoding with the quadratic cost made separable exactly.

    The cost is z^T Q z + fixed^T z, Q the symmetrized cost matrix.
    W = 2Q, W[i*n+j][k*n+l] = cost(i, j, k, l) + cost(k, l, i, j), is
    read from the instance's exact entries (Python ints, Fractions only
    for rational data), its diagonal and upper triangle only, and halved
    once, where a term weight or linear entry is formed; each equals its
    value from Q in Fractions, so the instance is the one Q gives.
    _pairwise rephrases it, for data of either sign.  Per instance only
    W's entries are read and the terms and linear part built: the
    constraints, the rows and the pieces are shared by every instance
    of one size.
    """
    n = q.n
    if q.tensor is not None:
        t = q.tensor

        def w(i, j, k, l):
            return t[i][j][k][l] + t[k][l][i][j]
    else:
        f, d = q.flow, q.distance

        def w(i, j, k, l):
            return f[i][k] * d[j][l] + f[k][i] * d[l][j]
    diagonal = [w(i, j, i, j) for i in range(n) for j in range(n)]
    cvec = (0,) * (n * n) if q.fixed is None else [x for row in q.fixed for x in row]
    a, b = assignment_matrix(n)
    return CipInstance(a, b, (1,) * (n * n), _pairwise(n, w, diagonal, cvec))


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
    n^2 coordinates x_ij of to_cip.  A start that is not a permutation
    of 0..n-1 is a ValueError.
    """
    perm0 = _permutation(start, q.n, "solve_qap") if start is not None else tuple(range(q.n))
    inst = to_cip(q)
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
