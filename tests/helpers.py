"""Helpers that only the tests call: instance and assignment writers,
exact rational products and rank, the exhaustive or constructive
oracles for the paper's column splits and 0/1 split minima, a dense
objective evaluation, a reference walk, a time bound and an instance
deeper than the recursion limit."""

import signal
import sys
from contextlib import contextmanager
from fractions import Fraction
from itertools import product

from graveropt.augment import (CipInstance, SolveReport, SolveStatus, Step,
                               brute_force_optimum)
from graveropt.core import IntMatrix, Vec, canonical_rep
from graveropt.graver import TestSet
from graveropt.objective import (DiscreteConvexFn, SeparableObjective, format_objective,
                                 linear_objective)
from graveropt.qap import QapInstance
from graveropt.quadratic import RatMatrix


class Overran(Exception):
    """Raised by time_bound's alarm; neither the library nor the CLI's
    main() catches it, so a test that overruns fails as such."""


@contextmanager
def time_bound(seconds: float):
    """Fail the enclosed block instead of letting it run past seconds."""
    def expire(signum, frame):
        raise Overran("still running after %s s" % seconds)
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def path_difference_instance() -> CipInstance:
    """min sum z over rows e_i - e_{i+1} (so every z_i is equal), b = 0,
    u = 1, in n = sys.getrecursionlimit() + 100 variables: a search
    that recursed once per coordinate would fail on it.  Its box kernel
    vectors are (1,)*n alone, and its optimum is 0 at the origin."""
    n = sys.getrecursionlimit() + 100
    a = IntMatrix(n - 1, n, tuple(tuple(int(j == i) - int(j == i + 1) for j in range(n))
                                  for i in range(n - 1)))
    return CipInstance(a, (0,) * (n - 1), (1,) * n, linear_objective((1,) * n))


def exact_rank(a: IntMatrix) -> int:
    """Rank over the rationals, by exact Gaussian elimination."""
    work = [[Fraction(x) for x in row] for row in a.entries]
    rank = 0
    for j in range(a.cols):
        piv = next((i for i in range(rank, a.rows) if work[i][j]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        prow = work[rank]
        for i in range(a.rows):
            if i != rank and work[i][j]:
                f = work[i][j] / prow[j]
                work[i] = [x - f * y for x, y in zip(work[i], prow)]
        rank += 1
        if rank == a.rows:
            break
    return rank


def rat_mat_mul(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError("rat_mat_mul: dimension mismatch")
    return tuple(tuple(sum((x * b[k][j] for k, x in enumerate(row)), Fraction(0))
                       for j in range(len(b[0]))) for row in a)


def rat_transpose(a: RatMatrix) -> RatMatrix:
    if not a:
        return a
    return tuple(tuple(a[i][j] for i in range(len(a))) for j in range(len(a[0])))


def find_feasible_point(inst: CipInstance, box: Vec) -> Vec | None:
    """First feasible point in the box by brute_force_optimum's pruned
    enumeration."""
    try:
        probe = CipInstance(inst.a, inst.b, inst.upper,
                            SeparableObjective(inst.n, (), (Fraction(0),) * inst.n))
        z, _ = brute_force_optimum(probe, box)
        return z
    except ValueError:
        return None


def format_instance(inst: CipInstance) -> str:
    """The instance file that augment.parse_instance reads."""
    parts = ["A", "%d %d" % (inst.a.rows, inst.a.cols)]
    parts.extend(" ".join(str(x) for x in r) for r in inst.a.entries)
    parts.append("b")
    if inst.b:
        parts.append(" ".join(str(x) for x in inst.b))
    if inst.upper is not None:
        parts.append("upper")
        parts.append(" ".join(str(x) for x in inst.upper))
    parts.append("objective")
    parts.append(format_objective(inst.objective).rstrip("\n"))
    return "\n".join(parts) + "\n"


def write_qaplib(q: QapInstance) -> str:
    """The assignment file that qap.read_qaplib reads."""
    if q.flow is None or q.distance is None:
        raise ValueError("write_qaplib: instance is not in flow/distance form")
    def block(m: RatMatrix) -> str:
        return "\n".join(" ".join(str(int(x)) for x in row) for row in m)
    return "%d\n\n%s\n\n%s\n" % (q.n, block(q.flow), block(q.distance))


def binary_split_minimum(g: DiscreteConvexFn, p: int, k: int) -> Fraction:
    """Minimum of the 0/1 split of one piece at displacement p.

    2k binary variables: x_j steps up with cost g(j) - g(j-1), y_j
    steps down with cost g(-j) - g(-j+1); sum x - sum y must equal p.
    Exhaustive, meant as an oracle for small k.  The optimal value
    equals g(p) - g(0) whenever k >= |p|.
    """
    if k < abs(p):
        raise ValueError("binary_split_minimum: k must be at least |p|")
    best: Fraction | None = None
    for bits in product((0, 1), repeat=2 * k):
        x, y = bits[:k], bits[k:]
        if sum(x) - sum(y) != p:
            continue
        cost = Fraction(0)
        for j in range(1, k + 1):
            if x[j - 1]:
                cost += g.value(j) - g.value(j - 1)
            if y[j - 1]:
                cost += g.value(-j) - g.value(-j + 1)
        if best is None or cost < best:
            best = cost
    assert best is not None
    return best


def _expand_last_column(g: TestSet, s: int) -> TestSet:
    """From the basis of (A|a), the basis of (A|a|s*a), s = -1 or 1.

    Each element (u, p) splits its last entry p into every pair
    (x, s*(p - x)) with x from 0 to p, which stays in the kernel since
    x + s*s*(p - x) = p; the vector (0,..,0,1,-s) joins the set.  The
    split column a must be nonzero: a zero column makes each of the two
    new unit vectors a kernel element on its own, and (0,..,0,1,-s)
    stops being minimal.
    """
    n = g.dimension - 1
    out: set[Vec] = set()
    for rep in g.directions:
        for v in (rep, tuple(-x for x in rep)):
            u, p = v[:n], v[n]
            for x in range(min(p, 0), max(p, 0) + 1):
                out.add(canonical_rep(u + (x, s * (p - x))))
    out.add((0,) * n + (1, -s))
    return TestSet(g.dimension + 1, frozenset(out))


def expand_negated_column(g: TestSet) -> TestSet:
    """From the basis of (A|a), the basis of (A|a|-a)."""
    return _expand_last_column(g, -1)


def expand_duplicated_column(g: TestSet) -> TestSet:
    """From the basis of (A|a), the basis of (A|a|a)."""
    return _expand_last_column(g, 1)


def dense_value(f: SeparableObjective, z: Vec) -> Fraction:
    """f(z) by the plainest sum: every term's piece at its whole
    argument sum_j c_j z_j + offset, zero or not, plus l_j z_j for every
    coordinate; it shares nothing with SeparableObjective.value but the
    pieces."""
    total = Fraction(0)
    for t in f.terms:
        total += t.fn.value(sum(c * x for c, x in zip(t.coeffs, z)) + t.offset)
    for c, x in zip(f.linear, z):
        total += c * x
    return total


def reference_walk(inst: CipInstance, t_set: TestSet, z0: Vec, best: bool = False,
                   cap: int = 10 ** 6) -> SolveReport:
    """The report augment.solve should give, by the plainest walk.

    Every scan tries every signed direction (each sorted direction d,
    then -d) by unit steps from the current point: a step is taken
    while the next point lies in the bounds and lowers f, and every
    point tried is evaluated afresh, without step limits or a memo.  The
    first improving direction wins, or with best the lowest landing
    value (ties keep scan order).  A ray still descending after cap
    steps, or a walk with an improving scan after cap steps, ends
    unbounded-suspected.  Points are evaluated by dense_value, not by
    the objective's own value.
    """
    upper = inst.upper

    def f(p):
        return dense_value(inst.objective, p)

    def inside(p):
        return all(x >= 0 for x in p) and (
            upper is None or all(x <= u for x, u in zip(p, upper)))

    signed = [t for d in sorted(t_set.directions) for t in (d, tuple(-x for x in d))]
    z, value, steps = tuple(z0), f(tuple(z0)), []
    while True:
        champion = None
        for t in signed:
            lam, cur = 0, value
            while True:
                p = tuple(a - (lam + 1) * b for a, b in zip(z, t))
                if not inside(p):
                    break
                v = f(p)
                if v >= cur:
                    break
                if lam == cap:
                    return SolveReport(SolveStatus.UNBOUNDED_SUSPECTED, z, value, tuple(steps))
                lam, cur = lam + 1, v
            if lam and (champion is None or cur < champion[2]):
                champion = (t, lam, cur)
                if not best:
                    break
        if champion is None:
            return SolveReport(SolveStatus.OPTIMAL, z, value, tuple(steps))
        if len(steps) == cap:
            return SolveReport(SolveStatus.UNBOUNDED_SUSPECTED, z, value, tuple(steps))
        t, lam, value = champion
        z = tuple(a - lam * b for a, b in zip(z, t))
        steps.append(Step(t, lam, value))
