"""Universal test sets for separable discrete-convex objectives.

A family of objectives sum f_i(c_i^T z + c_i0) + c^T z over {Az = b}
is covered by one direction set: lift A with one tracking variable per
composition row c_i, take the Graver basis of the lifted matrix, and
project back to the original variables.  The projected set contains
the Graver basis of A and is in general strictly larger.

box_test_set builds only the directions that fit a box |t_j| <= u_j and
keeps the sets of recent families (A, C, u); compute_test_set is not
cached.  Both hand TestSet an array; the file format prints its rows.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass

import numpy as np

from .core import (IntMatrix, ParseError, Vec, as_int, format_int_matrix, parse_int_matrix,
                   parse_int_vector)
from .graver import (TestSet, append_products, box_kernel_vectors, compute_graver,
                     conformally_minimal, int_dtype, project_first_n)

logger = logging.getLogger(__name__)


# Families whose box sets box_test_set keeps, least recently used out
# first.  The qap-n3 benchmark stream hits on 81% of its calls at 128
# (69% at 32).
FAMILY_CACHE_SIZE = 128

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
    lifted = compute_graver(build_lifted_matrix(a, c)).rows
    return TestSet(a.cols, project_first_n(lifted, a.cols), provenance=(a, c))


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

    By the same argument a lift lies below another only if its z part
    does, so where no two candidates of (A, u) compare, up to sign,
    every lift is minimal whatever C is.  That is checked only on
    evidence, and only when it can pay: after some family's filter has
    kept every candidate, the next family of that (A, u) runs
    conformally_minimal on the candidates themselves, once, and the
    verdict is kept with them.  If no two compare, that family and every
    later one of that (A, u) take every candidate without the lift and
    the filter, so the check costs no more than the filter it replaces.

    When the box search runs over its budget (more than
    BOX_CANDIDATE_LIMIT candidates, or n times as many partial
    assignments), the same set is taken from compute_test_set(a, c)
    instead.  One INFO line names the branch taken.  The returned set
    records upper as its box.

    The sets of the last FAMILY_CACHE_SIZE families (A, C, tuple(u)) are
    kept and handed out again, the very same TestSet; every call, hit or
    miss, logs the INFO line, so the log does not depend on call history.
    The candidates read neither C nor b and are kept, read-only, with
    their verdict, for the last FAMILY_CACHE_SIZE pairs (A, u).
    """
    t_set, line = _box_family(a, c, tuple(map(as_int, upper)))
    logger.info(*line)
    return t_set


@functools.lru_cache(maxsize=FAMILY_CACHE_SIZE)
def _box_family(a: IntMatrix, c: IntMatrix, upper: Vec) -> tuple[TestSet, tuple]:
    """box_test_set's set for the family (A, C, u) and its INFO line as
    the logging arguments (format, values...)."""
    if len(upper) != a.cols:
        raise ValueError("box_test_set: bound vector has wrong length")
    if a.cols != c.cols:
        raise ValueError("box_test_set: A and C must have equal column counts")
    cands = _box_candidates(a, upper)
    if cands is None:
        full = compute_test_set(a, c).rows
        inside = (np.abs(full) <= np.array(upper, dtype=int_dtype(max(upper)))).all(axis=1)
        t_set = TestSet(a.cols, full[inside], provenance=(a, c), box=upper)
        return t_set, ("test set: completion (box search over its %d-candidate budget), "
                       "%d directions in the box", BOX_CANDIDATE_LIMIT, len(t_set))
    z = cands.z
    if cands.kept_all and cands.incomparable is None:
        cands.incomparable = bool(conformally_minimal(z)[0].all())
    if cands.incomparable:
        logger.debug("box: %d candidates, all kept, no two compare", len(z))
        keep = slice(None)
    else:
        # each z lifts to (z, -Cz): z times -C^T appended
        keep, met = conformally_minimal(
            append_products(z, [[-x for x in c.column(j)] for j in range(a.cols)]))
        logger.debug("box: %d candidates, %d kept, %d sign-prefilter pairs",
                     len(z), keep.sum(), met)
    t_set = TestSet(a.cols, z[keep], provenance=(a, c), box=upper)
    cands.kept_all |= len(t_set) == len(z)
    return t_set, ("test set: box, %d candidates, %d directions", len(z), len(t_set))


@dataclass(eq=False)
class _BoxCandidates:
    """The canonical z in ker(A) with |z_j| <= u_j as one read-only array
    (int_dtype of max u); whether some family's filter has kept them
    all; and whether no two of them compare up to sign, None until the
    next family after such a filter runs conformally_minimal on z."""

    z: np.ndarray
    kept_all: bool = False
    incomparable: bool | None = None


# The candidates of the last FAMILY_CACHE_SIZE pairs (A, u): they read
# neither C nor b, and 149 of the 150 box-set builds of a qap-n3
# benchmark run share theirs (896 of 2,752 on bounded-qp).
@functools.lru_cache(maxsize=FAMILY_CACHE_SIZE)
def _box_candidates(a: IntMatrix, upper: Vec) -> _BoxCandidates | None:
    """The candidates of (A, u), or None when the search runs over its budget."""
    cands = box_kernel_vectors(a, upper, limit=BOX_CANDIDATE_LIMIT)
    if cands is None:
        return None
    z = np.array(cands, dtype=int_dtype(max(upper, default=0))).reshape(len(cands), a.cols)
    z.flags.writeable = False
    return _BoxCandidates(z)


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
    s = c.rows
    rows = [row + (0,) * (2 * k * s) for row in a.entries]
    rows += [row + (0,) * (2 * k * i) + (-1,) * k + (1,) * k + (0,) * (2 * k * (s - i - 1))
             for i, row in enumerate(c.entries)]
    return IntMatrix(a.rows + s, a.cols + 2 * k * s, tuple(rows))


# ---------------------------------------------------------------------------
# file format: standard integer matrix prefixed by a header comment

def format_test_set(t: TestSet) -> str:
    """The header "# hcip n=<dimension> s=<rows of C>" (s=0 for a set
    without provenance), for a set cut down to a box a second header
    line "# hcip box=<u_1>,...,<u_n>", then the directions as a matrix
    in sorted order."""
    lines = ["# hcip n=%d s=%d" % (t.dimension, t.provenance[1].rows if t.provenance else 0)]
    if t.box is not None:
        lines.append("# hcip box=%s" % ",".join(map(str, t.box)))
    body = IntMatrix.from_rows(t.rows.tolist(), cols=t.dimension)
    return "\n".join(lines) + "\n" + format_int_matrix(body)


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
    if not all(map(any, m.entries)):
        raise ParseError("test set: zero direction")
    return TestSet(m.cols, m.entries, box=box)
