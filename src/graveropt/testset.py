"""Universal test sets for separable discrete-convex objectives.

A family of objectives sum f_i(c_i^T z + c_i0) + c^T z over {Az = b}
is covered by one direction set: lift A with one tracking variable per
composition row c_i, take the Graver basis of the lifted matrix, and
project back to the original variables.  The projected set contains
the Graver basis of A and is in general strictly larger.
"""

from __future__ import annotations

import logging

import numpy as np

from .core import (IntMatrix, ParseError, Vec, canonical_rep, parse_int_matrix,
                   parse_int_vector)
from .graver import (TestSet, append_products, box_kernel_vectors, compute_graver,
                     conformally_minimal, int_dtype, project_first_n)

logger = logging.getLogger(__name__)


# Past this many box kernel vectors (or n times as many partial
# assignments of the search), box_test_set builds the full lifted basis
# instead.  On a 2-core host the box path costs 5 to 7 us per candidate
# on sets of 500 or more (12 to 23 ms for the 3280 of |z_j| <= 4 in Z^4);
# the completion costs 0.0003 s to 0.25 s per (A, C) over the acceptance
# battery's 50 bounded quadratics, none past 1200 candidates.  A higher
# limit would now be cheap, but it would change which path serves an
# instance, so the limit stays.
BOX_CANDIDATE_LIMIT = 4096


def build_lifted_matrix(a: IntMatrix, c: IntMatrix) -> IntMatrix:
    """[[A, 0], [C, I]]: one fresh tracking column per row of C."""
    if a.cols != c.cols:
        raise ValueError("build_lifted_matrix: A and C must have equal column counts")
    s = c.rows
    rows = [row + (0,) * s for row in a.entries]
    rows += [row + tuple(int(k == i) for k in range(s)) for i, row in enumerate(c.entries)]
    return IntMatrix(a.rows + s, a.cols + s, tuple(rows))


def compute_test_set(a: IntMatrix, c: IntMatrix) -> TestSet:
    """Project the lifted Graver basis onto the first n coordinates;
    compute_graver(a), provenance included, when C has no rows."""
    lifted = build_lifted_matrix(a, c)
    dirs = project_first_n(compute_graver(lifted).directions, a.cols)
    return TestSet(a.cols, dirs, provenance=(a, c))


def box_test_set(a: IntMatrix, c: IntMatrix, upper: Vec) -> TestSet:
    """The directions of compute_test_set(a, c) that fit in |t_j| <= u_j.

    A step between two points of the box 0 <= z <= u moves coordinate j
    by at most u_j, so no other direction can ever be taken there.  The
    truncated set is built without the full lifted basis (the
    truncated-Graver idea of Hemmecke, Math. Program. 96 (2003)):
    enumerate the canonical z in ker(A) with |z_j| <= u_j, lift each to
    its unique kernel vector (z, -Cz) of [[A, 0], [C, I]], keep the
    conformally minimal lifts and project.  This is exact: whatever
    lies conformally below a lifted box vector is a lifted kernel
    vector whose z part is conformally below z, so it is in the box
    too, and minimality among the box candidates is minimality in the
    whole lifted kernel.  The result therefore equals the box members
    of compute_test_set(a, c).

    When the box search runs over its budget (more than
    BOX_CANDIDATE_LIMIT candidates, or n times as many partial
    assignments), the same set is taken from compute_test_set(a, c)
    instead.  One INFO line names the branch taken.  The returned set
    records upper as its box.
    """
    t_set, line = box_test_set_and_line(a, c, upper)
    logger.info(*line)
    return t_set


def box_test_set_and_line(a: IntMatrix, c: IntMatrix,
                          upper: Vec) -> tuple[TestSet, tuple]:
    """box_test_set(a, c, upper) without its INFO line, which it returns
    as the logging arguments (format, values...) for the caller to emit."""
    if a.cols != c.cols:
        raise ValueError("box_test_set: A and C must have equal column counts")
    if len(upper) != a.cols:
        raise ValueError("box_test_set: bound vector has wrong length")
    cands = box_kernel_vectors(a, tuple(upper), limit=BOX_CANDIDATE_LIMIT)
    if cands is None:
        dirs = frozenset(d for d in compute_test_set(a, c).directions
                         if all(abs(x) <= u for x, u in zip(d, upper)))
        line = ("test set: completion (box search over its %d-candidate budget), "
                "%d directions in the box", BOX_CANDIDATE_LIMIT, len(dirs))
    else:
        z = np.array(cands, dtype=int_dtype(max(upper, default=0))).reshape(len(cands), a.cols)
        # each z lifts to (z, -Cz): z times -C^T appended
        keep, met = conformally_minimal(
            append_products(z, [[-x for x in c.column(j)] for j in range(a.cols)]))
        dirs = frozenset(map(tuple, z[keep].tolist()))
        logger.debug("box: %d candidates, %d kept, %d sign-prefilter pairs",
                     len(cands), len(dirs), met)
        line = ("test set: box, %d candidates, %d directions", len(cands), len(dirs))
    return TestSet(a.cols, dirs, provenance=(a, c), box=tuple(upper)), line


def build_split_matrix(a: IntMatrix, c: IntMatrix, k: int) -> IntMatrix:
    """Widened lift: row i of C gets k columns of -1 then k of +1.

    Splitting each tracking variable into k unit up-steps and k unit
    down-steps keeps the projected direction set unchanged; the matrix
    is what a 0/1-variable reformulation of each term works on.
    """
    if a.cols != c.cols:
        raise ValueError("build_split_matrix: A and C must have equal column counts")
    if k < 1:
        raise ValueError("build_split_matrix: k must be positive")
    n, s = a.cols, c.rows
    width = n + 2 * k * s
    rows = []
    for row in a.entries:
        rows.append(row + (0,) * (2 * k * s))
    for i in range(s):
        pad = [0] * (2 * k * s)
        for t in range(k):
            pad[2 * k * i + t] = -1
            pad[2 * k * i + k + t] = 1
        rows.append(c.row(i) + tuple(pad))
    return IntMatrix(a.rows + s, width, tuple(rows))


# ---------------------------------------------------------------------------
# file format: standard integer matrix prefixed by a header comment

def format_test_set(t: TestSet) -> str:
    """The header "# hcip n=<dimension> s=<rows of C>" (s=0 for a set
    without provenance), for a set cut down to a box a second header
    line "# hcip box=<u_1>,...,<u_n>", then the directions as a matrix
    in sorted order."""
    rows = sorted(t.directions)
    lines = ["# hcip n=%d s=%d" % (t.dimension, t.provenance[1].rows if t.provenance else 0)]
    if t.box is not None:
        lines.append("# hcip box=%s" % ",".join(map(str, t.box)))
    lines.append("%d %d" % (len(rows), t.dimension))
    lines.extend(" ".join(str(x) for x in r) for r in rows)
    return "\n".join(lines) + "\n"


def parse_test_set(text: str) -> TestSet:
    """A set written by format_test_set, its box included; comment lines
    other than the "# hcip" header carry no data."""
    body, box = [], None
    for ln in text.splitlines():
        if not ln.strip().startswith("#"):
            body.append(ln)
        elif (words := ln.split())[:2] == ["#", "hcip"]:
            for w in words[2:]:
                if w.startswith("box="):
                    if box is not None:
                        raise ParseError("test set: box given twice")
                    box = parse_int_vector(w[4:].replace(",", " "))
    m = parse_int_matrix("\n".join(body))
    if box is not None and (len(box) != m.cols or min(box) < 0):
        raise ParseError("test set: bad box %s for %d columns" % (box, m.cols))
    dirs = set()
    for row in m.entries:
        if not any(row):
            raise ParseError("test set: zero direction")
        dirs.add(canonical_rep(row))
    return TestSet(m.cols, frozenset(dirs), box=box)
