"""Augmentation solver over a fixed direction set.

Instances are min f(z) s.t. Az = b, z >= 0 (optional upper bounds),
with f separable discrete-convex.  The solver walks from a feasible
point: scan the direction set for an improving signed step, slide as
far as the one-dimensional restriction keeps decreasing, repeat.  With
a sufficient direction set the walk can only stop at a global optimum.
The walk carries f(z): each point it tries is evaluated once, and the
line search hands back the value where it lands.
"""

from __future__ import annotations

import enum
import functools
import logging
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .core import IntMatrix, ParseError, Vec, parse_int_matrix, parse_int_vector
from .objective import SeparableObjective, parse_objective
from . import testset
from .testset import TestSet, box_test_set_and_line, compute_test_set

logger = logging.getLogger(__name__)

# Families whose direction sets instance_test_set keeps, least recently
# used out first.  The qap-n3 benchmark stream hits on 81% of its calls
# at 128 (69% at 32).
FAMILY_CACHE_SIZE = 128


class InfeasibleStartError(ValueError):
    """The supplied start point violates the constraints."""


class SolveStatus(enum.Enum):
    OPTIMAL = "optimal"
    UNBOUNDED_SUSPECTED = "unbounded-suspected"


@dataclass(frozen=True)
class CipInstance:
    """Equality-constrained integer program with separable convex cost."""

    a: IntMatrix
    b: Vec
    upper: Vec | None
    objective: SeparableObjective

    def __post_init__(self) -> None:
        if len(self.b) != self.a.rows:
            raise ValueError("CipInstance: right-hand side has wrong length")
        if self.objective.n != self.a.cols:
            raise ValueError("CipInstance: objective dimension != column count")
        if self.upper is not None and len(self.upper) != self.a.cols:
            raise ValueError("CipInstance: bound vector has wrong length")

    @property
    def n(self) -> int:
        return self.a.cols

    def feasible(self, z: Sequence[int]) -> bool:
        if len(z) != self.n:
            return False
        if any(x < 0 for x in z):
            return False
        if self.upper is not None and any(x > u for x, u in zip(z, self.upper)):
            return False
        return self.a.mat_vec(tuple(z)) == self.b


@dataclass(frozen=True, slots=True)
class Step:
    direction: Vec
    length: int
    value_after: Fraction


@dataclass(frozen=True, slots=True)
class SolveReport:
    status: SolveStatus
    optimum: Vec | None
    value: Fraction | None
    steps: tuple[Step, ...] = field(default_factory=tuple)


def max_feasible_step(inst: CipInstance, z: Vec, t: Vec) -> int | None:
    """Largest lam >= 0 keeping z - lam*t within bounds; None if unbounded."""
    lam: int | None = None
    for j, tj in enumerate(t):
        if tj > 0:
            m = z[j] // tj
        elif tj < 0 and inst.upper is not None:
            m = (inst.upper[j] - z[j]) // (-tj)
        else:
            continue
        lam = m if lam is None else min(lam, m)
    return lam


def line_search(inst: CipInstance, z: Vec, t: Vec, value: Fraction,
                cap: int = 10 ** 6) -> tuple[int, Fraction] | None:
    """Largest improving step count along -t from z, and where it lands.

    value is f(z).  Returns (lam, f(z - lam*t)) for the smallest
    lam >= 1 minimizing f(z - lam*t) over the feasible ray (discrete
    convexity makes the first non-improving increment final), or None
    when the unit step is infeasible or not an improvement.  A ray that
    still descends at step cap + 1 raises RuntimeError as a suspected
    unbounded instance; a minimizer at exactly cap is returned.
    """
    limit = max_feasible_step(inst, z, t)
    f = inst.objective.value
    lam, cur = 0, value
    while limit is None or lam < limit:
        nxt = f(tuple(a - (lam + 1) * b for a, b in zip(z, t)))
        if nxt >= cur:
            break
        if lam == cap:
            raise RuntimeError("line_search: still descending after %d steps" % cap)
        lam, cur = lam + 1, nxt
    return (lam, cur) if lam else None


def find_improving(inst: CipInstance, t_set: TestSet, z: Vec, value: Fraction,
                   best: bool = False, cap: int = 10 ** 6):
    """An improving (direction, step length, value after), or None at optima.

    value is f(z).  Default scan: t_set.scan, canonical directions in
    sorted order, + before -, first improvement wins.  With best=True
    every signed direction is line-searched and the deepest landing
    value wins (ties keep scan order).
    """
    if not inst.feasible(z):
        raise InfeasibleStartError("find_improving: start point infeasible")
    champion = None
    for t in t_set.scan:
        found = line_search(inst, z, t, value, cap=cap)
        if found is not None and (champion is None or found[1] < champion[2]):
            champion = (t,) + found
            if not best:
                return champion
    return champion


def check_compatible(inst: CipInstance, t_set: TestSet) -> None:
    """Refuse a test set whose provenance does not cover the instance.

    A set cut down to a box only covers instances bounded inside it: a
    wider box admits steps longer than any of its directions.  A set
    without provenance must at least keep Az = b: each of its
    directions has to lie in the kernel of A.
    """
    if t_set.dimension != inst.n:
        raise ValueError("test set dimension %d != instance dimension %d"
                         % (t_set.dimension, inst.n))
    if t_set.box is not None and (inst.upper is None or any(
            u > w for u, w in zip(inst.upper, t_set.box))):
        raise ValueError("test set was cut down to the box %s, which does not "
                         "contain the instance's box" % (t_set.box,))
    if t_set.provenance is None:
        zero = (0,) * inst.a.rows
        for d in t_set.directions:
            if inst.a.mat_vec(d) != zero:
                raise ValueError("test set direction %s is not in the kernel of "
                                 "the constraint matrix" % (d,))
        return
    a, c = t_set.provenance
    if a != inst.a:
        raise ValueError("test set was computed for a different constraint matrix")
    rows = set(c.entries)
    for row in composition_matrix(inst).entries:
        if row not in rows:
            raise ValueError("test set does not cover objective row %r" % (row,))


def solve(inst: CipInstance, t_set: TestSet, z0: Vec,
          best: bool = False, cap: int = 10 ** 6) -> SolveReport:
    """Monotone augmentation from z0 until no direction improves.

    cap bounds both the number of steps and each step's length; it has
    to be at least 1.  The walk is optimal once a scan finds nothing
    improving, the scan after the cap-th step included; past cap it is
    unbounded-suspected.
    """
    if cap < 1:
        raise ValueError("solve: step cap must be at least 1, got %d" % cap)
    check_compatible(inst, t_set)
    if not inst.feasible(z0):
        raise InfeasibleStartError("solve: start point infeasible")
    z = tuple(z0)
    value = inst.objective.value(z)
    steps: list[Step] = []
    while True:  # at most cap + 1 scans: each one ends the walk or adds a step
        try:
            found = find_improving(inst, t_set, z, value, best=best, cap=cap)
        except RuntimeError:
            break
        if found is None:
            return SolveReport(SolveStatus.OPTIMAL, z, value, tuple(steps))
        if len(steps) == cap:
            break
        t, lam, new_value = found
        z = tuple(a - lam * b for a, b in zip(z, t))
        assert new_value < value
        value = new_value
        steps.append(Step(t, lam, value))
    return SolveReport(SolveStatus.UNBOUNDED_SUSPECTED, z, value, tuple(steps))


def brute_force_optimum(inst: CipInstance, box: Vec) -> tuple[Vec, Fraction]:
    """Exhaustive minimum over 0 <= z <= min(box, upper), Az = b.

    Depth-first with per-row residual pruning; ties resolve to the
    lexicographically first minimizer.  Raises when nothing in the box
    is feasible.
    """
    n = inst.n
    if len(box) != n:
        raise ValueError("brute_force_optimum: box has wrong dimension")
    lim = list(box)
    if inst.upper is not None:
        lim = [min(a, b) for a, b in zip(lim, inst.upper)]
    if any(x < 0 for x in lim):
        raise ValueError("brute_force_optimum: empty box")
    rows = inst.a.entries
    d = inst.a.rows
    # per row: max and min attainable contribution of coordinates j..
    hi = [[0] * (n + 1) for _ in range(d)]
    lo = [[0] * (n + 1) for _ in range(d)]
    for i in range(d):
        for j in range(n - 1, -1, -1):
            c = rows[i][j]
            hi[i][j] = hi[i][j + 1] + (c * lim[j] if c > 0 else 0)
            lo[i][j] = lo[i][j + 1] + (c * lim[j] if c < 0 else 0)
    best: tuple[Vec, Fraction] | None = None
    point = [0] * n
    partial = [0] * d

    def descend(j: int) -> None:
        nonlocal best
        if j == n:
            val = inst.objective.value(point)
            if best is None or val < best[1]:
                best = (tuple(point), val)
            return
        for x in range(lim[j] + 1):
            ok = True
            for i in range(d):
                c = partial[i] + rows[i][j] * x
                need = inst.b[i]
                if c + lo[i][j + 1] > need or c + hi[i][j + 1] < need:
                    ok = False
                    break
            if ok:
                point[j] = x
                for i in range(d):
                    partial[i] += rows[i][j] * x
                descend(j + 1)
                for i in range(d):
                    partial[i] -= rows[i][j] * x
        point[j] = 0

    descend(0)
    if best is None:
        raise ValueError("brute_force_optimum: no feasible point in box")
    return best


def composition_matrix(inst: CipInstance) -> IntMatrix:
    """The objective's composition rows, deduplicated, zero rows dropped."""
    rows = []
    seen = set()
    for t in inst.objective.terms:
        if any(t.coeffs) and t.coeffs not in seen:
            seen.add(t.coeffs)
            rows.append(t.coeffs)
    return IntMatrix(len(rows), inst.n, tuple(rows))


@functools.lru_cache(maxsize=FAMILY_CACHE_SIZE)
def _family_test_set(a: IntMatrix, c: IntMatrix, upper: Vec | None):
    """instance_test_set's set for the family (A, C, u), with the logger
    and the INFO line (format, values...) that name the branch taken."""
    if upper is not None:
        t_set, line = box_test_set_and_line(a, c, upper)
        return t_set, testset.logger, line
    t_set = compute_test_set(a, c)
    return t_set, logger, ("test set: completion, %d directions", len(t_set))


def instance_test_set(inst: CipInstance) -> TestSet:
    """Sufficient direction set for the instance's objective family.

    Composition rows come from composition_matrix.  On an unbounded
    instance this is the projected lifted basis, compute_test_set.  On
    a bounded one it is only the part that fits in the box |t_j| <= u_j,
    testset.box_test_set: a direction outside it moves some coordinate
    out of [0, u_j] in one unit step, so the walk never takes it and
    its steps and endpoint are those of the full set.  The branch taken
    is logged at INFO, on graveropt.testset for a bounded instance.

    The sets of the last FAMILY_CACHE_SIZE families (A, C, u) are kept
    and handed out again, the very same TestSet, its scan included;
    instance_test_set.cache_info() and .cache_clear() reach the cache.
    This is sound because box_test_set and compute_test_set read
    nothing but (A, C, u): the right-hand side, the start, the
    functions f_i, their offsets and the linear part never enter, so a
    hit returns exactly what a miss would build.  A hit logs the
    miss's INFO line again, so the log does not depend on call history.
    """
    upper = None if inst.upper is None else tuple(inst.upper)
    t_set, log, line = _family_test_set(inst.a, composition_matrix(inst), upper)
    log.info(*line)
    return t_set


instance_test_set.cache_info = _family_test_set.cache_info
instance_test_set.cache_clear = _family_test_set.cache_clear


# ---------------------------------------------------------------------------
# instance file format: sections A / b / upper (optional) / objective

def parse_instance(text: str) -> CipInstance:
    lines = [ln for ln in text.splitlines()
             if ln.strip() and not ln.strip().startswith("#")]
    def take_section(name: str, optional: bool = False) -> bool:
        if lines and lines[0].strip() == name:
            lines.pop(0)
            return True
        if optional:
            return False
        raise ParseError("instance file: expected section %r" % name)

    take_section("A")
    if not lines:
        raise ParseError("instance file: missing matrix header")
    try:
        rows, _cols = (int(x) for x in lines[0].split())
    except ValueError:
        raise ParseError("instance file: bad matrix header %r" % lines[0]) from None
    a = parse_int_matrix("\n".join(lines[:rows + 1]))
    del lines[:rows + 1]
    take_section("b")
    # Zero constraint rows mean an empty b; no value line follows the header.
    if a.rows == 0:
        b: Vec = ()
    else:
        if not lines:
            raise ParseError("instance file: missing right-hand side")
        b = parse_int_vector(lines.pop(0))
    upper = None
    if take_section("upper", optional=True):
        if not lines:
            raise ParseError("instance file: missing bound vector")
        upper = parse_int_vector(lines.pop(0))
    take_section("objective")
    obj = parse_objective("\n".join(lines))
    return CipInstance(a, b, upper, obj)
