"""Augmentation solver over a fixed direction set.

Instances are min f(z) s.t. Az = b, z >= 0 (optional upper bounds),
with f separable discrete-convex.  The solver walks from a feasible
point: scan the direction set for an improving signed step, slide as
far as the one-dimensional restriction keeps decreasing, repeat.  With
a sufficient direction set the walk can only stop at a global optimum.
Each scan first works out, in one array pass, every signed direction's
feasible step limit, the largest lam <= cap + 1 keeping
0 <= z - lam*t <= u (step_limits); a direction with limit 0 is never
line-searched, and the others are searched up to their limit, so a
ray still descending at cap + 1 is a returned step length, not an
exception.  The walk carries f(z), the line search hands back the
value where it lands, and the walk remembers the values of the last
WALK_MEMO_SIZE points it asked for, so a point that a later scan meets
again is looked up, not evaluated again.  An evaluation itself reads
only the supports (objective.SeparableObjective.value): a term whose
argument is 0 and a zero coordinate cost nothing, which on sparse 0/1
encodings such as the assignment problem's is most of them.

What depends only on the objective's structure or on (A, u) is computed
once, not per solve: the composition matrix C is a cached property of
the objective (SeparableObjective.composition_matrix), and
testset.box_test_set, to which instance_test_set hands every bounded
instance, keeps the sets of recent families (A, C, u) and the box
candidates of recent pairs (A, u).  Feasibility is still
checked at the start and on every scan (CipInstance.feasible), in one
pass over exact ints: a set whose provenance is wrong cannot walk the
solver off Az = b unnoticed.
"""

from __future__ import annotations

import enum
import functools
import logging
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress
from operator import gt, mul
from typing import Callable, Sequence

import numpy as np

from .core import IntMatrix, ParseError, Vec, as_int, parse_int_matrix, parse_int_vector
from .objective import SeparableObjective, parse_objective
from .graver import OracleBudgetError, append_products, int_dtype
from .testset import TestSet, box_test_set, compute_test_set

logger = logging.getLogger(__name__)

# Points whose objective values one walk keeps, least recently used out
# first.  Of the evaluations an unbounded memo saves on the first four
# benchmark passes at seed 7 (walk-dense 24.8%, graver-lift 30.6%,
# qap-n3 31.5%, bounded-qp 33.6% of them), 512 keeps all; 128 keeps
# walk-dense at 24.3% and graver-lift at 28.7%.
WALK_MEMO_SIZE = 512

# Partial assignments one brute_force_optimum call may visit before it
# raises graver.OracleBudgetError: about a second on a 2-core host for
# six variables under one equation.  The largest call of the test suite
# visits 4,398.
BRUTE_FORCE_BUDGET = 2 * 10 ** 6


class InfeasibleStartError(ValueError):
    """The supplied start point violates the constraints."""


class SolveStatus(enum.Enum):
    OPTIMAL = "optimal"
    UNBOUNDED_SUSPECTED = "unbounded-suspected"


@dataclass(frozen=True)
class CipInstance:
    """Equality-constrained integer program with separable convex cost;
    b and upper are stored as tuples of ints (a float is a ValueError)."""

    a: IntMatrix
    b: Vec
    upper: Vec | None
    objective: SeparableObjective

    def __post_init__(self) -> None:
        object.__setattr__(self, "b", tuple(map(as_int, self.b)))
        if self.upper is not None:
            object.__setattr__(self, "upper", tuple(map(as_int, self.upper)))
        if len(self.b) != self.a.rows:
            raise ValueError("CipInstance: right-hand side has wrong length")
        if self.objective.n != self.a.cols:
            raise ValueError("CipInstance: objective dimension != column count")
        if self.upper is not None and len(self.upper) != self.a.cols:
            raise ValueError("CipInstance: bound vector has wrong length")
        if self.upper is not None and min(self.upper) < 0:
            raise ValueError("CipInstance: upper bounds %s include a negative entry"
                             % (self.upper,))

    @property
    def n(self) -> int:
        return self.a.cols

    def feasible(self, z: Sequence[int]) -> bool:
        """Whether len(z) = n, 0 <= z <= u and Az = b: one pass in exact
        ints, each row's product with z summed against its b_i."""
        if len(z) != self.n or min(z) < 0:
            return False
        if self.upper is not None and any(map(gt, z, self.upper)):
            return False
        return all(sum(map(mul, row, z)) == bi for row, bi in zip(self.a.entries, self.b))


@dataclass(frozen=True, slots=True)
class Step:
    direction: Vec
    length: int
    value_after: Fraction


@dataclass(frozen=True, slots=True)
class SolveReport:
    status: SolveStatus
    optimum: Vec
    value: Fraction
    steps: tuple[Step, ...] = field(default_factory=tuple)


def step_limits(inst: CipInstance, t_set: TestSet, z: Vec, cap: int) -> np.ndarray:
    """For each row t of S (t_set.scan_array), the largest lam <= cap + 1
    with 0 <= z - lam*t <= u: the least of z_j // t_j over t_j > 0 and
    (u_j - z_j) // (-t_j), that is (z_j - u_j) // t_j, over t_j < 0.

    The array takes int_dtype of the largest of z, u, cap + 1 and the
    set's reach, so an int64 z - u or quotient cannot overflow; past the
    int64 range it holds Python ints.
    """
    s, top = t_set.scan_array, cap + 1
    dtype = int_dtype(max(t_set.reach, top, *z, *(inst.upper or ())))
    zs = np.array(z, dtype=dtype)
    lim = np.full(s.shape, top, dtype=dtype)
    np.floor_divide(zs, s, out=lim, where=s > 0)
    if inst.upper is not None:
        np.floor_divide(zs - np.array(inst.upper, dtype=dtype), s, out=lim, where=s < 0)
    return lim.min(axis=1, initial=top)


def line_search(z: Vec, t: Vec, value: Fraction, limit: int,
                f: Callable[[Vec], Fraction]) -> tuple[int, Fraction] | None:
    """Largest improving step count along -t from z, up to limit, and
    where it lands.

    value is f(z) and limit a feasible step count (step_limits).
    Returns (lam, f(z - lam*t)) for the smallest lam in 1..limit
    minimizing f(z - lam*t) (discrete convexity makes the first
    non-improving increment final), or None when the unit step is not an
    improvement.  With limit = cap + 1 from step_limits, lam = cap + 1
    means the ray still descends there.
    """
    lam, cur = 0, value
    while lam < limit:
        nxt = f(tuple(a - (lam + 1) * b for a, b in zip(z, t)))
        if nxt >= cur:
            break
        lam, cur = lam + 1, nxt
    return (lam, cur) if lam else None


def find_improving(inst: CipInstance, t_set: TestSet, z: Vec, value: Fraction,
                   best: bool = False, cap: int = 10 ** 6,
                   f: Callable[[Vec], Fraction] | None = None):
    """An improving (direction, step length, value after), or None at optima.

    value is f(z).  Default scan: t_set.scan, canonical directions in
    sorted order, + before -, first improvement wins.  With best=True
    every signed direction is line-searched and the deepest landing
    value wins (ties keep scan order).  One array pass (step_limits)
    gives each signed direction its feasible step limit, at most
    cap + 1; only those with a limit of at least 1 are line-searched, in
    scan order, each up to its limit.  The others could not move, so the
    result is that of line-searching every direction.  A step length of
    cap + 1, a ray still descending there, is returned at once, with
    best=True too.  f evaluates the objective at a point:
    inst.objective.value unless given, and solve gives its walk's memo.
    """
    if not inst.feasible(z):
        raise InfeasibleStartError("find_improving: start point infeasible")
    if f is None:
        f = inst.objective.value
    limits = step_limits(inst, t_set, z, cap).tolist()
    champion = None
    for t, limit in compress(zip(t_set.scan, limits), limits):
        found = line_search(z, t, value, limit, f)
        if found is None:
            continue
        if not best or found[0] > cap:
            return (t,) + found
        if champion is None or found[1] < champion[2]:
            champion = (t,) + found
    return champion


def check_compatible(inst: CipInstance, t_set: TestSet) -> None:
    """Refuse a test set whose provenance does not cover the instance.

    A set cut down to a box only covers instances bounded inside it: a
    wider box admits steps longer than any of its directions.  A set
    without provenance must at least keep Az = b: each of its
    directions has to lie in the kernel of A, exactly (append_products).
    """
    if t_set.dimension != inst.n:
        raise ValueError("test set dimension %d != instance dimension %d"
                         % (t_set.dimension, inst.n))
    if t_set.box is not None and (inst.upper is None or any(
            u > w for u, w in zip(inst.upper, t_set.box))):
        raise ValueError("test set was cut down to the box %s, which does not "
                         "contain the instance's box" % (t_set.box,))
    if t_set.provenance is None:
        d_at = append_products(t_set.rows, [inst.a.column(j) for j in range(inst.n)])
        off = (d_at[:, inst.n:] != 0).any(axis=1)
        if off.any():
            raise ValueError("test set direction %s is not in the kernel of the "
                             "constraint matrix" % (tuple(t_set.rows[off.argmax()].tolist()),))
        return
    a, c = t_set.provenance
    if a != inst.a:
        raise ValueError("test set was computed for a different constraint matrix")
    covered = set(c.entries)
    missing = [row for row in inst.objective.composition_matrix.entries if row not in covered]
    if missing:
        raise ValueError("test set does not cover objective row %r" % (missing[0],))


def solve(inst: CipInstance, t_set: TestSet, z0: Vec,
          best: bool = False, cap: int = 10 ** 6) -> SolveReport:
    """Monotone augmentation from z0 until no direction improves.

    cap bounds both the number of steps and each step's length; it has
    to be at least 1.  The walk is optimal once a scan finds nothing
    improving, the scan after the cap-th step included; past cap it is
    unbounded-suspected.  The walk evaluates f through a memo of the
    last WALK_MEMO_SIZE points asked for (an LRU cache that solve drops
    when it returns), so its memory does not grow with the walk.
    """
    if cap < 1:
        raise ValueError("solve: step cap must be at least 1, got %d" % cap)
    check_compatible(inst, t_set)
    if not inst.feasible(z0):
        raise InfeasibleStartError("solve: start point infeasible")
    z = tuple(z0)
    f = functools.lru_cache(maxsize=WALK_MEMO_SIZE)(inst.objective.value)
    value = f(z)
    steps: list[Step] = []
    while True:  # at most cap + 1 scans: each one ends the walk or adds a step
        found = find_improving(inst, t_set, z, value, best=best, cap=cap, f=f)
        if found is None:
            return SolveReport(SolveStatus.OPTIMAL, z, value, tuple(steps))
        t, lam, new_value = found
        if lam > cap or len(steps) == cap:
            break
        z = tuple(a - lam * b for a, b in zip(z, t))
        assert new_value < value
        value = new_value
        steps.append(Step(t, lam, value))
    return SolveReport(SolveStatus.UNBOUNDED_SUSPECTED, z, value, tuple(steps))


def brute_force_optimum(inst: CipInstance, box: Vec) -> tuple[Vec, Fraction]:
    """Exhaustive minimum over 0 <= z <= min(box, upper), Az = b.

    Depth-first with per-row residual pruning, as a loop rather than a
    recursion, so the dimension is not bounded by Python's recursion
    limit; ties resolve to the lexicographically first minimizer.
    Raises ValueError when nothing in the box is feasible, and
    graver.OracleBudgetError past BRUTE_FORCE_BUDGET partial
    assignments visited, each value tried at a coordinate counting one.
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
    budget, visited = BRUTE_FORCE_BUDGET, 0
    j, x = 0, 0  # try x at coordinate j next; j == n is a full point
    while j >= 0:
        if j == n:
            val = inst.objective.value(point)
            if best is None or val < best[1]:
                best = (tuple(point), val)
        elif x <= lim[j]:
            visited += 1
            if visited > budget:
                raise OracleBudgetError(
                    "brute_force_optimum: over its budget of %d partial assignments "
                    "(BRUTE_FORCE_BUDGET)" % budget)
            for i in range(d):
                c = partial[i] + rows[i][j] * x
                need = inst.b[i]
                if c + lo[i][j + 1] > need or c + hi[i][j + 1] < need:
                    x += 1
                    break
            else:
                point[j] = x
                for i in range(d):
                    partial[i] += rows[i][j] * x
                j, x = j + 1, 0
            continue
        # back up to the last coordinate set and try its next value
        j -= 1
        if j >= 0:
            x = point[j]
            for i in range(d):
                partial[i] -= rows[i][j] * x
            x += 1
    logger.debug("brute force: %d partial assignments", visited)
    if best is None:
        raise ValueError("brute_force_optimum: no feasible point in box")
    return best


def instance_test_set(inst: CipInstance) -> TestSet:
    """Sufficient direction set for the instance's objective family.

    C is the objective's composition_matrix.  On a bounded
    instance this is the part of the projected lifted basis that fits in
    the box |t_j| <= u_j, testset.box_test_set: a direction outside it
    moves some coordinate out of [0, u_j] in one unit step, so the walk
    never takes it and its steps and endpoint are those of the full set.
    box_test_set keeps the sets of recent families (A, C, u) and logs
    its branch at INFO on graveropt.testset.  On an unbounded instance
    it is compute_test_set, built afresh on every call, with one INFO
    line on graveropt.augment.
    """
    c = inst.objective.composition_matrix
    if inst.upper is not None:
        return box_test_set(inst.a, c, inst.upper)
    t_set = compute_test_set(inst.a, c)
    logger.info("test set: completion, %d directions", len(t_set))
    return t_set


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
