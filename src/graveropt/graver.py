"""Graver bases of integer matrices.

compute_graver runs Hemmecke's project-and-lift: it starts from the
Graver basis of the kernel lattice projected onto a few columns on
which the projection is injective, and adds the other columns one at a
time.  Each step lifts the basis so far onto the new column and runs a
completion procedure on it: form sums and differences of pairs, and
keep the candidates that no member lies below in the conformal
partial order.  Only the critical pairs are formed, those that are
sign-compatible on the columns already lifted and opposed on the new
one.  At the fixpoint every kernel vector of the projection is a
sign-compatible sum of set members, so the conformally minimal members
are exactly its Graver basis.

The completion runs in rounds (_complete).  In a lift step a round
drops each candidate that some member already lies below, and the
candidates left that no other of them lies below join the set as one
block; the start completion reduces its candidates to normal forms
instead.  Every scan is one, _below: it meets the members in ascending
1-norm, in growing chunks, and packed sign bitmasks prefilter (row,
member) pairs so the magnitude comparison only runs on the few
sign-compatible ones.  A row stops at the chunk holding the first
member no heavier than a given reach that lies below it.  _reducible
runs it on a lift step's candidates and _find_below on the members for
the minimality filters, which also stop meeting the members found
non-minimal.  _batch_normal_form runs it until no row is reducible,
and subtracts from each row the first member below it (_first_below).

graver_oracle is the independent check: enumerate every kernel vector
in a box (box_kernel_vectors) and filter the minimal ones directly with
conformal_leq, which the completion does not use.  Its work is bounded
(ORACLE_BUDGET), as is that of the completion (COMPLETION_BUDGET).

A TestSet stores a direction set as one array, its rows: the completion
hands over its array, and the walk's signed scan is derived from it.
Every direction array is in tuple order, sorted once by _canonical.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from math import prod

import numpy as np

from .core import (IntMatrix, Vec, as_int, conformal_leq, euclid_reduce,
                   kernel_lattice_basis, negate)

# Magnitude at which arrays leave int64 for Python ints (int_dtype); below
# it every member 1-norm and pair sum of a completion fits in int64.
_FAST_ABS_LIMIT = 1 << 61

# Work one compute_graver call may do before it raises
# CompletionBudgetError, counted in pairs: the (pivot, member) pairs
# _pop_candidates tests and the (row, member) pairs the scans meet (the
# _below scans, and the chunks _first_below meets again), plus
# _SCAN_PAIRS per call of any.  On a 2-core host int64 scans meet about
# 50M pairs a second, and a call costs about as much NumPy overhead as
# 20,000 of them (0.4 ms a call on [1 1 10^30-1], whose calls meet few
# pairs).  The largest count of the test suite is 61.0M (61,044,003),
# the 1,002-element basis of [1 1 1000]; bases of about 10^30 elements
# stop after 2 to 6 s.
COMPLETION_BUDGET = 3 * 10 ** 8
_SCAN_PAIRS = 2 * 10 ** 4

# Work one graver_oracle call may do before it raises OracleBudgetError:
# the kernel vectors its box search finds plus the (g, v) pairs its
# filter tests, which a 2-core host tests at about 700,000 a second.
# The box search takes it as its limit, so it also stops past cols
# times as many partial assignments (box_kernel_vectors): about 1 s at
# three columns.  The largest call of the test suite does 90,689.
ORACLE_BUDGET = 5 * 10 ** 5

_FILTER_ELEMS = 1 << 17  # cap on the elements of one scan temporary
_PAIR_BATCH = 1 << 15    # cap on the (pivot, element) pairs one pairing batch scans

logger = logging.getLogger(__name__)


@dataclass(frozen=True, init=False, eq=False)
class TestSet:
    """Directions for the family (A, C), one canonical representative
    (first nonzero entry positive) per +/- pair; ``v in t`` raises TypeError.

    rows, the one stored form, holds them read-only in tuple order, of
    int_dtype(reach), reach the largest entry magnitude (0 for none).
    The constructor canonicalises, dedupes and sorts any array or
    iterable of integer vectors; a non-integer entry, a zero row or one
    of the wrong length is a ValueError.  == and hash read directions.

    compute_graver gives the Graver basis of A, the test set of the
    family with no composition rows.  provenance keeps (A, C), so a
    solver can refuse an unrelated instance; hand-assembled and parsed
    sets leave it None.  box is the bound vector u of a set cut down to
    |t_j| <= u_j (box_test_set), None for a full set; such a set only
    serves instances whose box lies inside u.
    """

    __test__ = False  # not a pytest class, despite the name

    dimension: int
    rows: np.ndarray
    provenance: tuple[IntMatrix, IntMatrix] | None = None
    box: Vec | None = None

    def __init__(self, dimension: int, directions, provenance=None, box=None):
        rows = directions
        if not (isinstance(rows, np.ndarray) and rows.dtype == np.int64):
            rows = np.array([[as_int(x) for x in d] for d in rows] or np.empty((0, dimension)),
                            dtype=object)
        if rows.shape[1:] != (dimension,) or not rows.any(axis=1).all():
            raise ValueError("TestSet: a direction is zero or not of length %d" % dimension)
        reach = max(int(rows.max(initial=0)), -int(rows.min(initial=0)))
        rows = _canonical(rows.astype(int_dtype(reach), copy=False))
        rows.flags.writeable = False
        vars(self).update(  # past the frozen __setattr__, as cached_property does
            dimension=dimension, rows=rows, reach=reach, provenance=provenance, box=box)

    def __len__(self) -> int:
        return len(self.rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, TestSet) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def _key(self) -> tuple:
        return self.dimension, self.directions, self.provenance, self.box

    @cached_property
    def scan_array(self) -> np.ndarray:  # not a field: repr ignores it
        """S, the signed directions in walk order: each row d, then -d."""
        s = np.stack((self.rows, -self.rows), axis=1).reshape(2 * len(self), self.dimension)
        s.flags.writeable = False
        return s

    @cached_property
    def scan(self) -> tuple[Vec, ...]:  # nor this: scan_array's rows, Python int tuples
        return tuple(map(tuple, self.scan_array.tolist()))

    @cached_property
    def directions(self) -> frozenset[Vec]:  # nor this
        return frozenset(self.scan[::2])


def int_dtype(reach: int) -> type:
    """int64 if reach, a bound on every magnitude an array will hold, is
    below _FAST_ABS_LIMIT, else object (Python ints).  Never left to
    np.array: it infers float64 for some ints in [2^63, 2^64)."""
    return np.int64 if reach < _FAST_ABS_LIMIT else object


def append_products(x: np.ndarray, m: list[list[int]], det: int = 1) -> np.ndarray:
    """x with its leading len(m) columns times m appended, divided by det
    (exactly); int64 while max|x| times the largest column 1-norm of m,
    each taken as at least 1, is below _FAST_ABS_LIMIT."""
    colsums = [sum(map(abs, col)) for col in zip(*m)]
    dtype = int_dtype(int(np.abs(x).max(initial=1)) * max(colsums + [1]))
    x = x.astype(dtype, copy=False)
    products = x[:, :len(m)] @ np.array(m, dtype=dtype).reshape(len(m), -1)
    return np.concatenate([x, products // det], axis=1)


def _canonical(rows: np.ndarray) -> np.ndarray:
    """The canonical representatives (first nonzero entry positive) of
    nonzero rows, each distinct one once, in tuple order."""
    lead = rows[np.arange(len(rows)), (rows != 0).argmax(axis=1)]
    rows = np.where((lead < 0)[:, None], -rows, rows)
    rows = rows[np.lexsort(rows.T[::-1])]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows[first]


def _pack_signs(mat: np.ndarray, words: int) -> np.ndarray:
    """Row sign patterns as uint64 words: column j sets bit j % 32 of
    word j // 32 where positive, bit 32 + j % 32 where negative."""
    bits = np.zeros((len(mat), 2, words * 32), dtype=bool)
    bits[:, 0, :mat.shape[1]], bits[:, 1, :mat.shape[1]] = mat > 0, mat < 0
    bits = bits.reshape(len(mat), 2, words, 32).transpose(0, 2, 1, 3)
    return np.packbits(bits.reshape(len(mat), words, 64), axis=2,
                       bitorder="little").view(np.uint64)[:, :, 0]


def _flip(masks: np.ndarray) -> np.ndarray:
    """The masks of the negated rows: each word's halves swap."""
    return (masks >> np.uint64(32)) | (masks << np.uint64(32))


def _sign_fits(g: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(plus, minus) over the broadcast mask rows, words on the last axis:
    whether each g has its support inside c's with the signs of c, and of -c."""
    fits = ((g & ~c) == 0, (g & ~_flip(c)) == 0)
    return tuple(f[..., 0] if f.shape[-1] == 1 else f.all(axis=-1) for f in fits)


def _subtract_max_multiple(w: np.ndarray, wabs: np.ndarray, g: np.ndarray,
                           sign: np.ndarray) -> np.ndarray:
    """w - k * sign * g row by row, k the largest with k|g| <= |w|.

    Each sign * g must be conformally below its row of w.  Zero entries
    of g get the fill max|w| + 1, above every ratio of the row.
    """
    gabs = np.abs(g)
    fill = wabs.max(axis=1, keepdims=True) + 1
    k = np.where(gabs > 0, wabs // np.maximum(gabs, 1), fill).min(axis=1)
    return w - (k * sign)[:, None] * g


class CompletionBudgetError(ValueError):
    """compute_graver ran past COMPLETION_BUDGET."""


class OracleBudgetError(ValueError):
    """An independent oracle, graver_oracle or
    augment.brute_force_optimum, ran past its work budget."""


class _Budget:
    """The work one compute_graver call has done, in pairs, against
    COMPLETION_BUDGET: each scan charges the pairs it meets or tests
    plus _SCAN_PAIRS."""

    def __init__(self, limit: int):
        self.limit = limit
        self.spent = 0

    def spend(self, pairs: int) -> None:
        self.spent += pairs + _SCAN_PAIRS
        if self.spent > self.limit:
            raise CompletionBudgetError(
                "compute_graver: over its budget of %d pairs (COMPLETION_BUDGET)"
                % self.limit)


class _Completion:
    """Working state of the completion run.

    Members are stored once per +/- pair (canonical representative),
    in insertion order, and never removed.  NumPy arrays hold their
    entries arr, 1-norms norm and sign masks mask (_pack_signs) for the
    vectorized scans; order lists them by ascending 1-norm (stable), so
    the light members that do nearly all reductions come first and a
    row only meets the members no heavier than itself.

    arr and the norms take int_dtype of the largest member 1-norm: the
    first block reaching _FAST_ABS_LIMIT turns both into object arrays
    of Python ints, once, and every scan runs unchanged on either dtype.
    """

    def __init__(self, n: int):
        self.n = n
        self.words = (n + 31) // 32
        self.arr = np.zeros((0, n), dtype=np.int64)
        self.norm = np.zeros(0, dtype=np.int64)
        self.mask = np.zeros((0, self.words), dtype=np.uint64)
        self.order = np.zeros(0, dtype=np.intp)

    def __len__(self) -> int:
        return len(self.arr)

    def add_block(self, rows: np.ndarray) -> None:
        """Append canonical nonzero rows, an int64 or object array, at once."""
        rabs = np.abs(rows)
        norms = rabs.astype(int_dtype(int(rabs.max(initial=0)) * self.n), copy=False).sum(axis=1)
        if int_dtype(int(norms.max(initial=0))) is object:
            self.arr, self.norm = self.arr.astype(object), self.norm.astype(object)
        mat = rows.astype(self.arr.dtype, copy=False)
        self.arr = np.concatenate([self.arr, mat])
        self.norm = np.concatenate([self.norm, norms.astype(self.norm.dtype, copy=False)])
        self.mask = np.concatenate([self.mask, _pack_signs(mat, self.words)])
        self.order = np.argsort(self.norm, kind="stable")


def _sign_pairs(gmask: np.ndarray, gnorm: np.ndarray, rmask: np.ndarray,
                reach: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (row, member) pairs, row by row, whose member has its support
    inside the row's with the row's signs or their negation, and a
    1-norm within the row's reach; and plus, whether each member fits
    the row's own signs."""
    plus, minus = _sign_fits(gmask[None], rmask[:, None])
    ci, gi = np.nonzero(plus | minus)
    light = gnorm[gi] <= reach[ci]
    return ci[light], gi[light], plus


def _magnitudes_fit(state: _Completion, g: np.ndarray, rabs: np.ndarray,
                    r: np.ndarray) -> np.ndarray:
    """Per pair: whether |member g| <= rabs[r] entrywise, checked in
    slices of at most _FILTER_ELEMS elements."""
    step = max(1, _FILTER_ELEMS // state.n)
    return np.concatenate([np.zeros(0, dtype=bool)] + [
        (np.abs(state.arr[g[s:s + step]]) <= rabs[r[s:s + step]]).all(axis=1)
        for s in range(0, g.size, step)])


def _below(state: _Completion, rabs: np.ndarray, rmask: np.ndarray, reach: np.ndarray,
           rows: np.ndarray, members: bool = False) -> tuple[np.ndarray, int]:
    """Per row (entry magnitudes rabs, sign masks rmask): the start of
    the chunk of the norm-sorted members that holds the first member of
    1-norm at most reach[row] below the row or below its negation, -1
    for none; and the pairs the sign prefilter met.  rows lists the row
    indices in ascending reach.

    A block of rows only meets the prefix of the norm-sorted members
    within its heaviest row's reach, in chunks [0, 64), [64, 128),
    [128, 256), ...; a row leaves after the first chunk holding a
    member below it.  So nearly every row of a scan that finds most
    rows reducible stops in the first chunk, and an irreducible row
    meets the whole prefix.  Blocks are sized so that no temporary over
    pairs holds more than _FILTER_ELEMS elements while the set has at
    most _FILTER_ELEMS / words members (a block holds at least one row,
    and that row meets the whole sorted prefix).

    With members, the rows are the members themselves, and after each
    row block the members that block found a member below leave the
    prefix that later blocks meet, so only whether there is one is
    reported.  The verdicts stay exact: if a dropped w lies below v up
    to sign, some minimal w' lies below w, so below v, and w' has a
    smaller 1-norm than w and is never dropped.
    """
    chunk = np.full(len(reach), -1, dtype=np.intp)
    if not len(state):
        return chunk, 0
    idx = state.order
    inorm = state.norm[idx]
    # rows lighter than every member meet none of them
    rows = rows[reach[rows] >= inorm[0]]
    gm = state.mask[idx]
    step = max(1, _FILTER_ELEMS // (idx.size * state.words))
    met = 0
    for start in range(0, rows.size, step):
        if members and start:
            live = chunk[idx] < 0
            idx, inorm, gm = idx[live], inorm[live], gm[live]
        blk = rows[start:start + step]
        k = int(np.searchsorted(inorm, reach[blk[-1]], side="right"))
        lo, hi = 0, min(k, 64)
        while blk.size:
            met += blk.size * (hi - lo)
            ci, gi, _ = _sign_pairs(gm[lo:hi], inorm[lo:hi], rmask[blk], reach[blk])
            chunk[blk[ci[_magnitudes_fit(state, idx[lo + gi], rabs, blk[ci])]]] = lo
            if hi == k:
                break
            # the unmatched rows that reach the next member go on
            blk = blk[(chunk[blk] < 0) & (reach[blk] >= inorm[hi])]
            lo, hi = hi, min(k, 2 * hi)
    return chunk, met


def _find_below(state: _Completion) -> tuple[np.ndarray, int]:
    """Per member: whether a member of smaller 1-norm lies conformally
    below it or below its negation, and the pairs the sign prefilter
    met (_below over the members).  Smaller, since a member below a
    vector of equal 1-norm equals it up to sign.  The minimality filters
    run this scan."""
    chunk, met = _below(state, np.abs(state.arr), state.mask, state.norm - 1, state.order,
                        members=True)
    return chunk >= 0, met


def _reducible(state: _Completion, cand: np.ndarray, budget: _Budget) -> np.ndarray:
    """Per candidate row, in the set's dtype: whether a member lies
    conformally below it or below its negation (_below, a member equal
    to it up to sign included).  The pairs met are charged to budget."""
    cabs = np.abs(cand)
    reach = cabs.sum(axis=1)
    chunk, met = _below(state, cabs, _pack_signs(cand, state.words), reach,
                        np.argsort(reach, kind="stable"))
    budget.spend(met)
    return chunk >= 0


def _first_below(state: _Completion, rabs: np.ndarray,
                 rmask: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Per row (entry magnitudes rabs, sign masks rmask): the first
    member in norm order (stable) below the row or its negation, as its
    index in the set, -1 for none; the sign, 1 or -1, that puts it below
    the row; and the pairs met.  _below finds the chunk that holds it,
    and only that chunk is met again, in blocks sized as in _below, so
    _below stays the scan that _reducible and _find_below run."""
    reach = rabs.sum(axis=1)
    chunk, met = _below(state, rabs, rmask, reach, np.argsort(reach, kind="stable"))
    first = np.full(len(reach), -1, dtype=np.intp)
    sign = np.ones(len(reach), dtype=np.int64)
    for lo in np.unique(chunk[chunk >= 0]).tolist():
        cut = state.order[lo:2 * lo or 64]
        rows = np.flatnonzero(chunk == lo)
        step = max(1, _FILTER_ELEMS // (cut.size * state.words))
        for start in range(0, rows.size, step):
            blk = rows[start:start + step]
            met += blk.size * cut.size
            ci, gi, plus = _sign_pairs(state.mask[cut], state.norm[cut], rmask[blk], reach[blk])
            ok = _magnitudes_fit(state, cut[gi], rabs, blk[ci])
            ci, at = np.unique(ci[ok], return_index=True)  # each row's first pair
            gi = gi[ok][at]
            first[blk[ci]], sign[blk[ci]] = cut[gi], np.where(plus[ci, gi], 1, -1)
    return first, sign, met


def _batch_normal_form(state: _Completion, cand: np.ndarray,
                       budget: _Budget) -> np.ndarray:
    """Reduce candidate rows, in the set's dtype, by maximal multiples
    until irreducible against the set as of entry, each time by the
    first member in norm order below the row or its negation: one scan
    (_first_below) a reduction, over the rows still reducible.  Rows
    reaching zero drop out; the rest return in input order.  Each
    scan's pairs are charged to budget."""
    work = cand.astype(state.arr.dtype)  # a copy, reduced in place
    live = np.arange(len(work))
    while live.size:
        w = work[live]
        wabs = np.abs(w)
        first, sign, met = _first_below(state, wabs, _pack_signs(w, state.words))
        budget.spend(met)
        hit = first >= 0
        live = live[hit]
        work[live] = _subtract_max_multiple(w[hit], wabs[hit], state.arr[first[hit]],
                                            sign[hit])
    return work[work.any(axis=1)]


def _pop_candidates(state: _Completion, lo: int, hi: int,
                    old: np.ndarray) -> np.ndarray:
    """Sums and differences of each pivot in [lo, hi) with the members
    added before it.

    A pair is formed only when its two summands are sign-compatible on
    the columns of the packed mask old and opposed on some other
    column (the pairing rule of _complete).
    """
    m = hi - 1
    r, b = state.mask[lo:hi][:, None], state.mask[:m][None]
    opp, same = b & _flip(r), b & r
    before = np.arange(m)[None] < np.arange(lo, hi)[:, None]
    pi, ti = np.nonzero(before & ~(opp & old).any(axis=2) & (opp & ~old).any(axis=2))
    di, tj = np.nonzero(before & ~(same & old).any(axis=2) & (same & ~old).any(axis=2))
    arr = state.arr
    return np.concatenate((arr[ti] + arr[lo + pi], arr[tj] - arr[lo + di]))


def _join(state: _Completion, forms: np.ndarray, budget: _Budget) -> np.ndarray:
    """Add the distinct forms (canonical representatives, in tuple
    order) that no other form lies conformally below as one block, and
    return the others.  The minimality filter is charged to budget."""
    forms = _canonical(forms)
    if not len(forms):
        return forms
    keep, met = conformally_minimal(forms)
    budget.spend(met)
    state.add_block(forms[keep])
    return forms[~keep]


def _complete(seeds: np.ndarray, n: int, fixed: int,
              budget: _Budget) -> tuple[np.ndarray, tuple[int, int]]:
    """Complete the seed rows (canonical, distinct, nonzero) and keep
    the conformally minimal members.

    Two members u, v give the candidates u + v and u - v only where the
    summands are sign-compatible on the first fixed columns and opposed
    on a later one.  With fixed = 0 that is every pair that is not
    sign-compatible (a sign-compatible sum reduces to a member at
    once); with fixed = n - 1 it is the critical-pair rule of a lift
    step (see compute_graver).

    Pivots pair in rounds.  The members not yet paired are always the
    suffix [done, len(state)), and a round pairs the pivots [done, end)
    with the members added before each, oldest pivot first, so each
    pair is formed once, when its later member is the pivot.  end is
    the largest that keeps the pivot-by-prefix mask within _PAIR_BATCH
    entries, (end - done + 1) * end <= _PAIR_BATCH, and a round takes
    at least one pivot.

    In a lift step (fixed >= 1) a round drops each candidate that a
    member lies conformally below, up to sign (_reducible), and the
    candidates left that no other of them lies below join the set as
    one block (_join); the others are dropped too.  compute_graver
    explains why the dropped sums are not needed.  The start completion
    (fixed = 0) has no such argument, so its candidates join as normal
    forms: each round's candidates reduce in one batch, by _below scans
    (_batch_normal_form), the batch-minimal forms join, and the other
    forms reduce again against the grown set.  Each form not kept has a
    kept form below it, since the conformal order is transitive up to
    sign and 1-norms strictly drop along a chain of distinct forms, so
    each re-reduction subtracts at least once and the loop ends.
    Either way each member is irreducible against the set and the rest
    of its block when it enters.

    Each pairing and each scan charges budget for the pairs it tests or
    meets: a reducibility scan or the normal-form scans, and one
    minimality filter per batch.

    Returns the minimal members' rows, by _find_below over the members,
    and (candidates formed, rounds).
    """
    state = _Completion(n)
    state.add_block(seeds)
    # columns [0, fixed), either sign, as a packed mask
    old = _pack_signs((np.arange(n) < fixed)[None], state.words)[0]
    old |= _flip(old)
    done = candidates = rounds = 0
    while done < len(state):
        end = done + 1
        while end < len(state) and (end - done + 1) * end <= _PAIR_BATCH:
            end += 1
        work = _pop_candidates(state, done, end, old)
        budget.spend((end - done) * (end - 1))
        done = end
        candidates += len(work)
        rounds += 1
        if not len(work):
            continue
        if fixed:
            _join(state, work[~_reducible(state, work, budget)], budget)
        else:
            while len(work):
                work = _join(state, _batch_normal_form(state, work, budget), budget)
    below, met = _find_below(state)
    budget.spend(met)
    return state.arr[~below], (candidates, rounds)


def _start_columns(seeds: list[Vec], columns) -> tuple[list[int], list[list[int]]]:
    """r of the given columns on which the r lattice basis vectors have
    full rank; the columns given must hold such r.

    Unimodular row operations (Euclid on one column over the rows not
    yet used) bring the basis to echelon form; its pivot columns are
    the choice.  A first sweep over the columns, in their order, takes
    only columns whose pivot is +/-1, a second fills up with any nonzero
    pivot, so the determinant on the chosen columns is the product of
    the pivots and is +/-1 whenever the sweeps find unit pivots.

    Returns the columns in the order chosen and the transformed basis
    (same lattice), row k pivoting the k-th column.  There it is upper
    triangular: a pivot row was zeroed at each column chosen before it,
    and later row operations only combine such rows.
    """
    rows = [list(v) for v in seeds]
    free = list(range(len(rows)))
    chosen: list[int] = []
    pivots: list[int] = []
    for unit_only in (True, False):
        for j in columns:
            if not free:
                break
            if j in chosen:
                continue
            p = euclid_reduce(rows, free, j)
            if p is not None and (not unit_only or abs(rows[p][j]) == 1):
                chosen.append(j)
                pivots.append(p)
                free.remove(p)
    return chosen, [rows[i] for i in pivots]


def _lift_map(basis: list[list[int]], sigma: list[int],
              order: list[int]) -> tuple[int, list[list[int]]]:
    """(det B, adj(B) . basis) for B the basis on the columns sigma.

    A lattice vector with sigma part y is x . basis for the unique x
    with x . B = y, so it equals y . adj(B) . basis / det B exactly.
    B is upper triangular (_start_columns), so forward substitution in
    u . B = det B . e_k gives row k of the integral adj(B), every
    division exact.  The columns of the returned map follow order.
    """
    r = len(sigma)
    det = prod(row[j] for row, j in zip(basis, sigma))
    adj = []
    for k in range(r):
        u = [0] * r
        for c, j in enumerate(sigma[k:], k):
            rest = (det if c == k else 0) - sum(u[i] * basis[i][j] for i in range(k, c))
            u[c] = rest // basis[c][j]
        adj.append(u)
    cols = [[row[j] for row in basis] for j in order]
    return det, [[sum(x * y for x, y in zip(arow, col)) for col in cols]
                 for arow in adj]


def compute_graver(a: IntMatrix) -> TestSet:
    """Graver basis of {v : Av = 0}, canonical representatives only, as
    the test set of the family (A, C) with C the 0 x n matrix.

    Project-and-lift (Hemmecke, Math. Program. 96 (2003)).  Take r
    columns sigma on which the rank-r kernel lattice L projects
    injectively (_start_columns).  The Graver basis of the projection
    of L onto sigma is the unit vectors when the lattice basis has
    determinant +/-1 there; otherwise the completion computes it from
    the projected basis, a lattice of index |det|.  For one row a the
    start leaves out a column j of least nonzero |a_j|, the last such:
    leaving out j gives the index |a_j| / gcd(a), so this is the least.
    Other matrices sweep their columns in order; no basis depends on
    the start.  Then the other columns join one at a time:
    each element of the basis so far is lifted to its unique
    continuation on the new column (the exact map of _lift_map), and
    a completion that pairs u, v only when they are sign-compatible on
    the columns already lifted and have opposite signs on the new one
    yields the Graver basis of the larger projection.

    Why the critical pairs suffice.  The new projection L' projects
    injectively onto the old columns F (they hold the start columns),
    so every nonzero vector of L' has a positive 1-norm |x|_F on F.
    Call x represented if it is a sum of members, up to sign, each
    conformal to x.  By induction on |x|_F every x in L' is represented.
    By the positive sum property of the previous basis, x is a sum of
    lifted elements (members) conformal to it on F; take such a sum with
    the least sum |g_j| over its summands, j the new column.  If it is
    not conformal to x on j, two summands u, v have opposite signs on
    j, and both are sign-compatible on F: a critical pair, so the
    completion formed u + v (up to sign).  Either u + v became a member,
    or some member w lies conformally below it, up to sign (_complete
    drops such sums, and a sum its batch filter drops has a kept one
    below it).  Then r = u + v - w lies below u + v too, and
    |r|_F = |u + v|_F - |w|_F < |u + v|_F <= |x|_F, so r is
    represented, and w plus r's summands represent u + v.  Either way u
    and v give way to summands conformal to u + v, which stay conformal
    to x on F, while sum |g_j| strictly drops, since u_j and v_j have
    opposite signs: a contradiction.  So the least sum is conformal to
    x everywhere.  Each Graver element of L' is then a member, and the
    minimality filter keeps exactly those.  The start completion has no
    such F to induct on, so it reduces every candidate to its normal
    form and keeps the nonzero ones: a normal form writes the candidate
    as a sum of members conformal to it.

    A basis can have far more elements than its matrix suggests (that
    of [1, 1, H] has H + 2), so the whole call may do at most
    COMPLETION_BUDGET pairs of work; past it, CompletionBudgetError.
    """
    seeds = kernel_lattice_basis(a)
    n, r = a.cols, len(seeds)
    provenance = (a, IntMatrix.zero(0, n))
    if r == 0:
        return TestSet(n, (), provenance)
    columns = range(n)
    if a.rows == 1 and any(a.entries[0]):
        row = a.entries[0]
        least = min((j for j in columns if row[j]), key=lambda j: (abs(row[j]), -j))
        columns = [j for j in columns if j != least]
    sigma, basis = _start_columns(seeds, columns)
    order = sigma + [j for j in range(n) if j not in sigma]
    det, lift = _lift_map(basis, sigma, order)
    budget = _Budget(COMPLETION_BUDGET)
    if abs(det) == 1:
        current = np.eye(r, dtype=np.int64)
        candidates = rounds = 0
    else:
        start = np.array([[row[j] for j in sigma] for row in basis], dtype=object)
        current, (candidates, rounds) = _complete(_canonical(start), r, 0, budget)
    logger.debug("start: columns %s, |det| %d, %d candidates, %d rounds, %d elements",
                 sigma, abs(det), candidates, rounds, len(current))
    for d in range(r + 1, n + 1):
        lifted = append_products(current, [[row[d - 1]] for row in lift], det)
        current, (candidates, rounds) = _complete(lifted, d, d - 1, budget)
        logger.debug("lift step %d: column %d, %d elements in, %d candidates, "
                     "%d rounds, %d elements out", d - r, order[d - 1], len(lifted),
                     candidates, rounds, len(current))
    return TestSet(n, current[:, np.argsort(order)], provenance)


def box_kernel_vectors(a: IntMatrix, bounds: Vec, limit: int) -> list[Vec] | None:
    """Canonical nonzero kernel vectors v with |v_j| <= bounds[j], in tuple order.

    Depth-first over the coordinates with per-row residual pruning: a
    partial assignment survives only while every row's partial sum can
    still be cancelled by the coordinates left.  Coordinates before the
    first nonzero entry stay nonnegative, so each +/- pair is visited
    once, through its canonical representative.  The search is a loop
    that steps the deepest coordinate through its interval, so the
    dimension is not bounded by Python's recursion limit.

    The search stops and returns None as soon as it has found more than
    limit vectors or reached more than n * limit partial assignments.
    A vector costs at most n partial assignments, so the second budget
    only binds first where the pruning leaves many dead ends, and it
    caps the work there.
    """
    n = a.cols
    if len(bounds) != n:
        raise ValueError("box_kernel_vectors: bound vector has wrong length")
    if any(u < 0 for u in bounds):
        raise ValueError("box_kernel_vectors: bounds must be nonnegative")
    rows = a.entries
    # slack[i][j]: max possible |contribution| of coordinates j.. to row i
    slack = [[0] * (n + 1) for _ in range(a.rows)]
    for i, row in enumerate(rows):
        for j in range(n - 1, -1, -1):
            slack[i][j] = slack[i][j + 1] + abs(row[j]) * bounds[j]
    # only rows touching column j can change their verdict there
    touching = [[(i, rows[i][j], slack[i][j + 1]) for i in range(a.rows)
                 if rows[i][j]] for j in range(n)]
    found: list[Vec] = []
    partial = [0] * a.rows
    point = [0] * n
    top = [0] * n  # top[j]: the largest value of coordinate j on this path
    lead = [True] * (n + 1)  # lead[j]: point[:j] is all zero
    budget = n * limit
    j = 0  # coordinates [0, j) are set
    while True:
        if j < n:
            # the x keeping every row's partial sum within reach of the
            # coordinates left, |p + c*x| <= rest, form one interval
            lo, hi = (0 if lead[j] else -bounds[j]), bounds[j]
            for i, c, rest in touching[j]:
                p = partial[i]
                if c > 0:
                    lo, hi = max(lo, -((rest + p) // c)), min(hi, (rest - p) // c)
                else:
                    lo, hi = max(lo, -((rest - p) // -c)), min(hi, (rest + p) // -c)
            if hi >= lo:
                budget -= hi - lo + 1
                if budget < 0:
                    return None
                point[j], top[j] = lo, hi
                for i, c, _ in touching[j]:
                    partial[i] += c * lo
                lead[j + 1] = lead[j] and lo == 0
                j += 1
                continue
        elif not lead[n]:
            found.append(tuple(point))
            if len(found) > limit:
                return None
        # step the deepest coordinate below its top up by one; a lead
        # coordinate starts at 0, so the new point leaves the lead
        while j:
            j -= 1
            x = point[j]
            if x < top[j]:
                point[j] = x + 1
                for i, c, _ in touching[j]:
                    partial[i] += c
                lead[j + 1] = False
                j += 1
                break
            for i, c, _ in touching[j]:
                partial[i] -= c * x
        else:
            return found


def conformally_minimal(rows: np.ndarray) -> tuple[np.ndarray, int]:
    """A mask of the distinct canonical nonzero rows (int64 or object)
    with no other row conformally below them, up to sign, and the pairs
    the sign prefilter met: _find_below's verdicts over the rows, negated.
    A kept row meets about every kept row lighter than it, and a dropped
    one the chunks up to the first holding a row below it, often the
    first 64, so about len(rows) * 64 + kept^2 / 2 pairs."""
    state = _Completion(rows.shape[1])
    state.add_block(rows)
    below, met = _find_below(state)
    return ~below, met


def graver_oracle(a: IntMatrix, bound: int) -> frozenset[Vec]:
    """Independent brute force: conformally minimal kernel vectors with
    max-norm at most ``bound``.

    Enumeration by box_kernel_vectors, then a naive quadratic
    minimality filter.  Meant for small verification runs: the box
    search takes ORACLE_BUDGET as its limit, and the kernel vectors it
    finds plus the (g, v) pairs the filter tests count against it.
    Past either, OracleBudgetError; below both, the budget changes
    nothing.
    """
    if bound < 0:
        raise ValueError("graver_oracle: bound must be nonnegative")
    budget = ORACLE_BUDGET
    over = OracleBudgetError("graver_oracle: over its budget of %d vectors and pairs "
                             "(ORACLE_BUDGET)" % budget)
    reps = box_kernel_vectors(a, (bound,) * a.cols, limit=budget)
    if reps is None:
        raise over
    work = len(reps)
    minimal = []
    for v in reps:
        neg = negate(v)
        for g in reps:
            work += 1
            if work > budget:
                raise over
            if g != v and (conformal_leq(g, v) or conformal_leq(g, neg)):
                break
        else:
            minimal.append(v)
    logger.debug("oracle: %d kernel vectors, %d minimal, work %d", len(reps),
                 len(minimal), work)
    return frozenset(minimal)


def verify_against_oracle(a: IntMatrix, basis: TestSet) -> bool:
    """Re-derive the basis by enumeration inside a box covering it.

    The box bound is twice the largest max-norm in the computed basis
    (2 for an empty basis), so any spurious or missing element up to
    that size is caught.  graver_oracle raises OracleBudgetError where
    that box is too large to check.
    """
    return graver_oracle(a, 2 * max(basis.reach, 1)) == basis.directions


def project_first_n(rows: np.ndarray, n: int) -> np.ndarray:
    """The distinct canonical representatives of the nonzero leading-n
    projections of the rows of an array, in tuple order."""
    heads = rows[:, :n]
    return _canonical(heads[(heads != 0).any(axis=1)])
