"""Independent correctness checks, run outside the timed phase.

Nothing here imports the library: the fibre is enumerated with numpy
and the objective is evaluated from the generator's own data, scaled
to integers so every comparison is exact.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import lcm

import numpy as np

_INT64_SAFE = 1 << 62


def fibre(a, b, box) -> np.ndarray:
    """All integer z with a z = b and 0 <= z <= box, one row per point.

    Breadth-first over coordinates; a partial point survives only while
    every row can still reach its right-hand side with the coordinates
    left.
    """
    n, d = len(box), len(a)
    am = np.array(a, dtype=np.int64).reshape(d, n)
    bv = np.array(b, dtype=np.int64)
    contrib = am * np.array(box, dtype=np.int64)
    # reach_hi[:, j] / reach_lo[:, j]: extreme row sums coordinates j.. can add
    reach_hi = np.zeros((d, n + 1), dtype=np.int64)
    reach_lo = np.zeros((d, n + 1), dtype=np.int64)
    for j in range(n - 1, -1, -1):
        reach_hi[:, j] = reach_hi[:, j + 1] + np.maximum(contrib[:, j], 0)
        reach_lo[:, j] = reach_lo[:, j + 1] + np.minimum(contrib[:, j], 0)
    pts = np.zeros((1, 0), dtype=np.int64)
    partial = np.zeros((1, d), dtype=np.int64)
    for j in range(n):
        xs = np.arange(box[j] + 1, dtype=np.int64)
        pts = np.hstack([np.repeat(pts, len(xs), axis=0),
                         np.tile(xs, len(pts))[:, None]])
        partial = np.repeat(partial, len(xs), axis=0) + pts[:, j:j + 1] * am[:, j]
        ok = ((partial + reach_lo[:, j + 1] <= bv) &
              (partial + reach_hi[:, j + 1] >= bv)).all(axis=1)
        pts, partial = pts[ok], partial[ok]
    return pts


def _scaled_value(spec, z) -> int:
    """Objective at one point times the common denominator, exactly."""
    scale = _scale(spec)
    total = Fraction(0)
    for alpha, row, off in spec.terms:
        total += alpha * (sum(c * x for c, x in zip(row, z)) + off) ** 2
    total += sum(c * x for c, x in zip(spec.linear, z))
    return int(total * scale)


def _scale(spec) -> int:
    return lcm(*(x.denominator for x in
                 [alpha for alpha, _, _ in spec.terms] + list(spec.linear)))


def cip_minimum(spec) -> Fraction:
    """Exhaustive minimum over the spec's fibre, with exact arithmetic."""
    pts = fibre(spec.a, spec.b, spec.box)
    if not len(pts):
        raise ValueError("oracle: empty fibre")
    scale = _scale(spec)
    peak = max(spec.box)
    bound = sum(abs(x) for x in spec.linear) * scale * peak
    for alpha, row, off in spec.terms:
        arg = sum(abs(c) for c in row) * peak + abs(off)
        bound += alpha * scale * arg * arg
    dtype = np.int64 if bound < _INT64_SAFE else object
    pts = pts.astype(dtype)
    vals = pts @ np.array([int(x * scale) for x in spec.linear], dtype=dtype)
    for alpha, row, off in spec.terms:
        arg = pts @ np.array(row, dtype=dtype) + off
        vals = vals + int(alpha * scale) * arg * arg
    return Fraction(int(vals.min()), scale)


def check_cip(spec, report, optimal_status) -> str | None:
    """None when the walk ended at a checked optimum, else the reason."""
    if report.status is not optimal_status:
        return "status %s" % report.status
    z = tuple(report.optimum)
    if len(z) != spec.n or any(x < 0 for x in z):
        return "endpoint outside the nonnegative orthant"
    if spec.upper is not None and any(x > u for x, u in zip(z, spec.upper)):
        return "endpoint violates the upper bounds"
    if any(sum(c * x for c, x in zip(row, z)) != rhs for row, rhs in zip(spec.a, spec.b)):
        return "endpoint violates A z = b"
    best = cip_minimum(spec)
    here = Fraction(_scaled_value(spec, z), _scale(spec))
    if here != best or report.value != best:
        return "value %s (reported %s), exhaustive minimum %s" % (here, report.value, best)
    return None


def qap_value(spec, perm) -> int:
    n = len(perm)
    return sum(spec.flow[i][k] * spec.distance[perm[i]][perm[k]]
               for i in range(n) for k in range(n))


def check_qap(spec, perm, value) -> str | None:
    """None when perm is an optimal assignment worth value."""
    n = len(spec.flow)
    if sorted(perm) != list(range(n)):
        return "not a permutation: %r" % (perm,)
    best = min(qap_value(spec, p) for p in permutations(range(n)))
    here = qap_value(spec, perm)
    if here != best or value != best:
        return "value %s (reported %s), enumeration minimum %s" % (here, value, best)
    return None
