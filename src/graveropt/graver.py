"""Graver bases of integer matrices.

compute_graver runs a completion procedure: seed with a lattice basis
of ker(A), repeatedly form sums and differences of pairs, reduce each
candidate against the current set under the conformal partial order,
and keep irreducible remainders.  At the fixpoint every kernel vector
is a sign-compatible sum of set members, so the conformally minimal
members are exactly the Graver basis.

Elements are taken up smallest 1-norm first, and the candidates of
each round reduce in batches: packed sign bitmasks prefilter the
reducer search so the magnitude comparison only runs on the few
sign-compatible pairs.

When the kernel is invariant under a group of coordinate permutations,
compute_graver can exploit it: the working set stays closed under the
group, so only one representative per orbit needs to run through the
pairing step.  Pair coverage survives because any pair of set members
is a group translate of some (representative, member) pair, and both
the conformal order and reducibility commute with coordinate
permutations.  The result is identical to the plain run; the pairing
work drops by roughly the group order.

graver_oracle is the independent check: enumerate every kernel vector
in a box (box_kernel_vectors) and filter the minimal ones directly.  It
shares only the one-line conformal_leq primitive with the completion
path.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .core import IntMatrix, Vec, canonical_rep, conformal_leq, kernel_lattice_basis

# Beyond this magnitude the int64 scan arrays could overflow, so the
# reducer search drops to the arbitrary-precision path.
_FAST_ABS_LIMIT = 1 << 61

_REFRESH_STEP = 64   # rebuild the norm-ordered scan permutation this often
_ELEM_CHUNK = 2048   # reducer scan block, walked in ascending 1-norm order
_CAND_CHUNK = 512    # candidate block in the batched reducer search
_FILTER_ELEMS = 1 << 17  # cap on the elements of one minimality-filter temporary
_BIG = np.int64(1) << 62

# Diagnostic hook for long runs; called as _TRACE(pops, set size, queue size)
# every _TRACE_EVERY pops.
_TRACE = None
_TRACE_EVERY = 256


@dataclass(frozen=True)
class GraverBasis:
    """Conformally minimal nonzero kernel vectors, one per +/- pair.

    elements holds canonical representatives (first nonzero entry
    positive); membership treats v and -v alike.
    """

    dimension: int
    elements: frozenset[Vec]
    source: str = ""

    def __contains__(self, v: Vec) -> bool:
        if len(v) != self.dimension or not any(v):
            return False
        return canonical_rep(v) in self.elements

    def __len__(self) -> int:
        return len(self.elements)

    def sorted_elements(self) -> list[Vec]:
        return sorted(self.elements)


def _pack_signs(mat: np.ndarray, words: int) -> tuple[np.ndarray, np.ndarray]:
    """Row sign patterns as little-endian uint64 bitmask words."""
    pos = np.packbits(mat > 0, axis=1, bitorder="little")
    neg = np.packbits(mat < 0, axis=1, bitorder="little")
    wp = np.zeros((mat.shape[0], words * 8), dtype=np.uint8)
    wn = np.zeros_like(wp)
    wp[:, :pos.shape[1]] = pos
    wn[:, :neg.shape[1]] = neg
    return wp.view(np.uint64), wn.view(np.uint64)


def close_permutation_group(perms, n: int, cap: int = 1_000_000) -> list[tuple[int, ...]]:
    """Closure of coordinate permutations under composition.

    A permutation acts by gathering, (p . v)[j] = v[p[j]]; the identity
    is always included.  Finite order makes the compositional closure a
    group without tracking inverses.
    """
    ident = tuple(range(n))
    gens = []
    for p in perms:
        t = tuple(int(x) for x in p)
        if sorted(t) != list(range(n)):
            raise ValueError("symmetry: not a permutation of range(%d)" % n)
        if t != ident:
            gens.append(t)
    members = {ident}
    frontier = [ident]
    while frontier:
        fresh = []
        for q in frontier:
            for g in gens:
                r = tuple(q[x] for x in g)
                if r not in members:
                    if len(members) >= cap:
                        raise ValueError("symmetry: group closure exceeds %d elements" % cap)
                    members.add(r)
                    fresh.append(r)
        frontier = fresh
    return sorted(members)


def _check_kernel_invariance(a: IntMatrix, seeds: list[Vec], perms) -> None:
    """Every permuted lattice basis vector must stay in ker(A)."""
    if a.rows == 0 or not seeds:
        return
    amax = max((abs(x) for row in a.entries for x in row), default=0)
    smax = max(abs(x) for v in seeds for x in v)
    if amax == 0:
        return
    if amax * smax * a.cols < (1 << 62):
        an = np.array(a.entries, dtype=np.int64)
        pm = np.array(perms, dtype=np.intp)
        sd = np.array(seeds, dtype=np.int64)
        imgs = sd[:, pm]                       # (seeds, group, n)
        prod = np.tensordot(imgs, an, axes=([2], [1]))
        bad = prod.any()
    else:
        bad = any(
            sum(row[j] * v[p[j]] for j in range(a.cols)) != 0
            for v in seeds for p in perms for row in a.entries)
    if bad:
        raise ValueError("symmetry: permutation does not preserve the kernel")


def _orbit_rows(group: np.ndarray, v: Vec) -> list[Vec]:
    """Distinct sign-canonical images of v under the group, v first."""
    if max(abs(x) for x in v) < _FAST_ABS_LIMIT:
        mat = np.array(v, dtype=np.int64)[group]
        nz = mat != 0
        lead = mat[np.arange(len(mat)), nz.argmax(axis=1)]
        mat = np.where((lead < 0)[:, None], -mat, mat)
        rows = {tuple(r) for r in mat.tolist()}
    else:
        rows = {canonical_rep(tuple(v[j] for j in p)) for p in group.tolist()}
    rows.discard(v)
    return [v] + sorted(rows)


class _Completion:
    """Working state of the completion run.

    Elements are stored once per +/- pair (canonical representative).
    NumPy mirrors support the vectorized scans: the entry matrix plus
    packed sign bitmasks used as a compatibility prefilter.  Scans walk
    chunks in ascending 1-norm order so that the small vectors that do
    nearly all reductions are tried first.
    """

    def __init__(self, n: int):
        self.n = n
        self.words = (n + 63) // 64
        self.vecs: list[Vec] = []          # insertion order, never reordered
        self.norms: list[int] = []
        self.seen: set[Vec] = set()
        self.maxabs = 0
        self.cap = 64
        self.arr = np.zeros((self.cap, n), dtype=np.int64)
        self.posm = np.zeros((self.cap, self.words), dtype=np.uint64)
        self.negm = np.zeros((self.cap, self.words), dtype=np.uint64)
        self.scan_order: np.ndarray = np.zeros(0, dtype=np.intp)
        self.sorted_upto = 0

    def add(self, v: Vec) -> int:
        return self.add_block([v])

    def add_block(self, rows: list[Vec]) -> int:
        """Append canonical nonzero rows in one batch; index of the first."""
        base = len(self.vecs)
        count = len(rows)
        self.vecs.extend(rows)
        self.norms.extend(sum(map(abs, v)) for v in rows)
        self.seen.update(rows)
        self.maxabs = max(self.maxabs, max(max(map(abs, v)) for v in rows))
        while base + count > self.cap:
            self.cap *= 2
        if self.arr.shape[0] < self.cap:
            for name in ("arr", "posm", "negm"):
                old = getattr(self, name)
                grown = np.zeros((self.cap, old.shape[1]), dtype=old.dtype)
                grown[:base] = old[:base]
                setattr(self, name, grown)
        if self.maxabs < _FAST_ABS_LIMIT:
            mat = np.array(rows, dtype=np.int64)
            self.arr[base:base + count] = mat
            p, q = _pack_signs(mat, self.words)
            self.posm[base:base + count] = p
            self.negm[base:base + count] = q
        return base

    def _refresh_scan_order(self) -> None:
        m = len(self.vecs)
        self.scan_order = np.argsort(np.array(self.norms[:m]), kind="stable")
        self.sorted_upto = m

    def scan_chunks(self):
        """Yield (indices, norm lower bound): sorted prefix chunks with
        their smallest member norm, then recent appends with bound 0."""
        m = len(self.vecs)
        if m - self.sorted_upto >= _REFRESH_STEP:
            self._refresh_scan_order()
        order = self.scan_order
        for start in range(0, len(order), _ELEM_CHUNK):
            idx = order[start:start + _ELEM_CHUNK]
            yield idx, self.norms[int(idx[0])]
        if self.sorted_upto < m:
            yield np.arange(self.sorted_upto, m, dtype=np.intp), 0

    def find_reducer(self, s: Vec) -> tuple[Vec, int] | None:
        """First element g (in scan order) with g or -g conformally below s.

        Returns (g, sign) so that sign*g is the reducer, or None.
        """
        if self.maxabs >= _FAST_ABS_LIMIT or max(abs(x) for x in s) >= _FAST_ABS_LIMIT:
            return self._find_reducer_exact(s)
        sv = np.array(s, dtype=np.int64)
        s_norm = int(np.abs(sv).sum())
        s_pos = sv > 0
        s_neg = sv < 0
        s_abs = np.abs(sv)
        for idx, lo in self.scan_chunks():
            if idx.size == 0 or lo > s_norm:
                continue
            block = self.arr[idx]
            b_pos = block > 0
            b_neg = block < 0
            too_big = np.abs(block) > s_abs
            plus_bad = ((b_pos & s_neg) | (b_neg & s_pos) | too_big).any(axis=1)
            minus_bad = ((b_pos & s_pos) | (b_neg & s_neg) | too_big).any(axis=1)
            hit = np.nonzero(~(plus_bad & minus_bad))[0]
            if hit.size:
                k = int(hit[0])
                g = self.vecs[int(idx[k])]
                return g, (1 if not plus_bad[k] else -1)
        return None

    def _find_reducer_exact(self, s: Vec) -> tuple[Vec, int] | None:
        neg = tuple(-x for x in s)
        for g in self.vecs:
            if conformal_leq(g, s):
                return g, 1
            if conformal_leq(g, neg):
                return g, -1
        return None

    def normal_form(self, s: Vec) -> Vec | None:
        """Reduce s by maximal multiples of reducers; None when it hits 0."""
        while True:
            hit = self.find_reducer(s)
            if hit is None:
                return s
            g, sign = hit
            k = min(abs(a) // abs(b) for a, b in zip(s, g) if b)
            s = tuple(a - sign * k * b for a, b in zip(s, g))
            if not any(s):
                return None


def _batch_find_reducers(state: _Completion, work: np.ndarray, wabs: np.ndarray,
                         wnorm: np.ndarray, wpos: np.ndarray,
                         wneg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per work row: index of a reducer element and its sign, or -1.

    Prefilters on packed sign masks (support containment with agreeing
    signs), then confirms entrywise magnitudes on the surviving pairs.
    A reducer needs 1-norm at most the candidate's, so whole chunks
    drop out once their smallest norm is too large.
    """
    red = np.full(len(work), -1, dtype=np.intp)
    sign = np.zeros(len(work), dtype=np.int64)
    for idx, lo in state.scan_chunks():
        pending = np.nonzero(red < 0)[0]
        if pending.size == 0:
            break
        if lo:
            pending = pending[wnorm[pending] >= lo]
            if pending.size == 0:
                continue
        gp = state.posm[idx]
        gn = state.negm[idx]
        for start in range(0, pending.size, _CAND_CHUNK):
            rows = pending[start:start + _CAND_CHUNK]
            cp = wpos[rows][:, None, :]
            cn = wneg[rows][:, None, :]
            plus = (((gp[None] & ~cp) | (gn[None] & ~cn)) == 0).all(axis=2)
            minus = (((gp[None] & ~cn) | (gn[None] & ~cp)) == 0).all(axis=2)
            ci, gi = np.nonzero(plus | minus)
            if ci.size == 0:
                continue
            ok = (np.abs(state.arr[idx[gi]]) <= wabs[rows[ci]]).all(axis=1)
            ci, gi = ci[ok], gi[ok]
            if ci.size == 0:
                continue
            plus_hit = plus[ci, gi]
            uniq, first = np.unique(ci, return_index=True)
            chosen = rows[uniq]
            red[chosen] = idx[gi[first]]
            sign[chosen] = np.where(plus_hit[first], 1, -1)
    return red, sign


def _batch_normal_form(state: _Completion, cand: np.ndarray) -> list[Vec]:
    """Reduce candidate rows by maximal multiples until irreducible.

    Rows reaching zero drop out; the rest return as tuples, irreducible
    against the set as of entry.
    """
    out: list[Vec] = []
    work = cand
    while len(work):
        wabs = np.abs(work)
        wnorm = wabs.sum(axis=1)
        wpos, wneg = _pack_signs(work, state.words)
        red, sign = _batch_find_reducers(state, work, wabs, wnorm, wpos, wneg)
        done = red < 0
        if done.any():
            out.extend(tuple(r) for r in work[done].tolist())
        live = ~done
        if not live.any():
            break
        w = work[live]
        g = state.arr[red[live]]
        gabs = np.abs(g)
        ratios = np.where(gabs > 0, wabs[live] // np.maximum(gabs, 1), _BIG)
        k = ratios.min(axis=1)
        w = w - (k * sign[live])[:, None] * g
        work = w[(w != 0).any(axis=1)]
    return out


def _pop_candidates(state: _Completion, pivot: int, m: int) -> np.ndarray:
    """Nonzero sums and differences of the pivot with the first m elements."""
    if m == 0:
        return np.zeros((0, state.n), dtype=np.int64)
    row = state.arr[pivot]
    block = state.arr[:m]
    b_pos = block > 0
    b_neg = block < 0
    want_sum = ((b_pos & (row < 0)) | (b_neg & (row > 0))).any(axis=1)
    want_diff = ((b_pos & (row > 0)) | (b_neg & (row < 0))).any(axis=1)
    parts = []
    if want_sum.any():
        parts.append(block[want_sum] + row)
    if want_diff.any():
        parts.append(block[want_diff] - row)
    if not parts:
        return np.zeros((0, state.n), dtype=np.int64)
    cand = np.vstack(parts)
    return cand[(cand != 0).any(axis=1)]


def _reduce_by_block(state: _Completion, work: np.ndarray,
                     base: int, end: int) -> tuple[np.ndarray, np.ndarray]:
    """Reduce rows by maximal multiples of elements arr[base:end] only.

    Returns (rows never hit, hit rows that remain nonzero).  Rows in the
    first part keep whatever irreducibility they had before; rows in
    the second need a fresh full reduction.
    """
    idx = np.arange(base, end, dtype=np.intp)
    gp = state.posm[idx][None]
    gn = state.negm[idx][None]
    garr = state.arr[idx]
    gabs = np.abs(garr)
    touched = np.zeros(len(work), dtype=bool)
    alive = np.ones(len(work), dtype=bool)
    while True:
        rows = np.nonzero(alive)[0]
        if rows.size == 0:
            break
        w = work[rows]
        wabs = np.abs(w)
        wpos, wneg = _pack_signs(w, state.words)
        cp = wpos[:, None, :]
        cn = wneg[:, None, :]
        plus = (((gp & ~cp) | (gn & ~cn)) == 0).all(axis=2)
        minus = (((gp & ~cn) | (gn & ~cp)) == 0).all(axis=2)
        ci, gi = np.nonzero(plus | minus)
        if ci.size == 0:
            break
        ok = (gabs[gi] <= wabs[ci]).all(axis=1)
        ci, gi = ci[ok], gi[ok]
        if ci.size == 0:
            break
        plus_hit = plus[ci, gi]
        uniq, first = np.unique(ci, return_index=True)
        g = garr[gi[first]]
        sgn = np.where(plus_hit[first], 1, -1)
        ga = np.abs(g)
        ratios = np.where(ga > 0, wabs[uniq] // np.maximum(ga, 1), _BIG)
        k = ratios.min(axis=1)
        hit = rows[uniq]
        work[hit] -= (k * sgn)[:, None] * g
        touched[hit] = True
        alive[:] = False
        alive[hit] = (work[hit] != 0).any(axis=1)
    nonzero = (work != 0).any(axis=1)
    return work[~touched], work[touched & nonzero]


def _pop_exact(state: _Completion, pivot: int, m: int) -> list[Vec]:
    """Arbitrary-precision pairing path; reduction happens in the caller."""
    vm = state.vecs[pivot]
    out = []
    for t in range(m):
        vt = state.vecs[t]
        if any(a * b < 0 for a, b in zip(vt, vm)):
            out.append(tuple(a + b for a, b in zip(vt, vm)))
        if any(a * b > 0 for a, b in zip(vt, vm)):
            out.append(tuple(a - b for a, b in zip(vt, vm)))
    return [c for c in out if any(c)]


def _complete(seeds: list[Vec], n: int,
              group: np.ndarray | None = None) -> list[Vec]:
    state = _Completion(n)
    # (1-norm, pivot, pair block end): small elements first.  Without a
    # group the pivot pairs with everything added before it; with one,
    # a single orbit representative pairs with everything up to and
    # including its own orbit block.
    heap: list[tuple[int, int, int]] = []

    def push(v: Vec) -> tuple[int, int]:
        if group is None:
            idx = state.add(v)
            heapq.heappush(heap, (state.norms[idx], idx, idx))
            return idx, idx + 1
        orbit = _orbit_rows(group, v)
        base = state.add_block(orbit)
        heapq.heappush(heap, (state.norms[base], base, base + len(orbit)))
        return base, base + len(orbit)

    def absorb_exact(cands) -> None:
        """Add the irreducible class of each candidate, one at a time,
        in arbitrary precision."""
        for cand in cands:
            r = state.normal_form(cand)
            if r is not None:
                c = canonical_rep(r)
                if c not in state.seen:
                    push(c)

    def absorb(cand: np.ndarray) -> None:
        """Add every irreducible class among the candidate rows.

        Full reduction runs once per round; after an addition the
        remaining rows only need re-checking against the fresh block,
        and just the rows it altered rejoin the full pass.
        """
        work, clean = cand, np.zeros((0, n), dtype=np.int64)
        while True:
            if len(work):
                reduced = _batch_normal_form(state, work)
                if reduced:
                    clean = np.vstack([clean, np.array(reduced, dtype=np.int64)])
                work = ()
            if not len(clean):
                return
            norms = np.abs(clean).sum(axis=1)
            j = int(norms.argmin())
            c = canonical_rep(tuple(int(x) for x in clean[j]))
            rest = np.delete(clean, j, axis=0)
            if c in state.seen:
                clean = rest
                continue
            base, end = push(c)
            if state.maxabs >= _FAST_ABS_LIMIT:
                # the fresh block has no int64 mirror rows to reduce by
                absorb_exact(tuple(r) for r in rest.tolist())
                return
            clean, work = _reduce_by_block(state, rest, base, end)

    for v in seeds:
        if any(v):
            c = canonical_rep(v)
            if c not in state.seen:
                push(c)
    pops = 0
    while heap:
        _, pivot, m = heapq.heappop(heap)
        pops += 1
        if _TRACE is not None and pops % _TRACE_EVERY == 0:
            _TRACE(pops, len(state.vecs), len(heap))
        if state.maxabs < _FAST_ABS_LIMIT:
            absorb(_pop_candidates(state, pivot, m))
        else:
            absorb_exact(_pop_exact(state, pivot, m))
    return _minimal_filter(state)


def _minimal_filter(state: _Completion) -> list[Vec]:
    """Keep elements with no other set member conformally below them.

    A dominator distinct from the element has strictly smaller 1-norm
    (equal norms force equality entrywise), so demanding a strict norm
    drop excludes the self match for free.

    Candidate blocks and magnitude checks are sized so that no
    temporary holds more than _FILTER_ELEMS elements, whatever the set
    size and dimension.
    """
    m = len(state.vecs)
    if m == 0:
        return []
    if state.maxabs >= _FAST_ABS_LIMIT:
        return _minimal_filter_exact(state)
    state._refresh_scan_order()
    work = state.arr[:m]
    wabs = np.abs(work)
    wnorm = np.array(state.norms, dtype=np.int64)
    wpos, wneg = state.posm[:m], state.negm[:m]
    keep = np.ones(m, dtype=bool)
    pair_step = max(1, _FILTER_ELEMS // state.n)
    for idx, lo in state.scan_chunks():
        pending = np.nonzero(keep)[0]
        pending = pending[wnorm[pending] > lo]
        if pending.size == 0:
            continue
        # candidates in ascending norm: a block only meets the chunk's
        # elements of smaller norm, a prefix of the norm-sorted chunk
        pending = pending[np.argsort(wnorm[pending], kind="stable")]
        inorm = wnorm[idx]
        step = max(1, _FILTER_ELEMS // (idx.size * state.words))
        for start in range(0, pending.size, step):
            rows = pending[start:start + step]
            cut = idx[:np.searchsorted(inorm, wnorm[rows[-1]])]
            gp = state.posm[cut][None]
            gn = state.negm[cut][None]
            cp = wpos[rows][:, None, :]
            cn = wneg[rows][:, None, :]
            plus = (((gp & ~cp) | (gn & ~cn)) == 0).all(axis=2)
            minus = (((gp & ~cn) | (gn & ~cp)) == 0).all(axis=2)
            ci, gi = np.nonzero(plus | minus)
            gi = cut[gi]
            ci = rows[ci]
            smaller = wnorm[gi] < wnorm[ci]
            ci, gi = ci[smaller], gi[smaller]
            for s in range(0, ci.size, pair_step):
                c, g = ci[s:s + pair_step], gi[s:s + pair_step]
                ok = (wabs[g] <= wabs[c]).all(axis=1)
                keep[c[ok]] = False
    return [state.vecs[i] for i in np.nonzero(keep)[0]]


def _minimal_filter_exact(state: _Completion) -> list[Vec]:
    keep = []
    for i, s in enumerate(state.vecs):
        neg = tuple(-x for x in s)
        dominated = any(
            j != i and (conformal_leq(g, s) or conformal_leq(g, neg))
            for j, g in enumerate(state.vecs))
        if not dominated:
            keep.append(s)
    return keep


def compute_graver(a: IntMatrix, symmetry=None) -> GraverBasis:
    """Graver basis of {v : Av = 0}, canonical representatives only.

    symmetry, when given, is an iterable of coordinate permutations
    (generators suffice) under which the kernel is invariant; the
    closure is validated against the kernel lattice basis and the
    completion then runs one representative per orbit.  The returned
    basis is identical to the plain computation.
    """
    seeds = kernel_lattice_basis(a)
    group = None
    if symmetry is not None and seeds:
        perms = close_permutation_group(symmetry, a.cols)
        if len(perms) > 1:
            _check_kernel_invariance(a, seeds, perms)
            group = np.array(perms, dtype=np.intp)
    minimal = _complete(seeds, a.cols, group)
    return GraverBasis(a.cols, frozenset(minimal), source=a.format_tag())


class _OverLimit(Exception):
    """Unwinds the box search once it runs over its budget."""


def box_kernel_vectors(a: IntMatrix, bounds: Vec,
                       limit: int | None = None) -> list[Vec] | None:
    """Canonical nonzero kernel vectors v with |v_j| <= bounds[j].

    Depth-first over the coordinates with per-row residual pruning: a
    partial assignment survives only while every row's partial sum can
    still be cancelled by the coordinates left.  Coordinates before the
    first nonzero entry stay nonnegative, so each +/- pair is visited
    once, through its canonical representative.

    With a limit, the search stops and returns None as soon as it has
    found more than limit vectors or reached more than n * limit
    partial assignments.  A vector costs at most n partial assignments,
    so the second budget only binds first where the pruning leaves many
    dead ends, and it caps the work there.
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
    budget = None if limit is None else n * limit

    def descend(j: int, lead: bool) -> None:
        nonlocal budget
        if j == n:
            if not lead:
                found.append(tuple(point))
                if limit is not None and len(found) > limit:
                    raise _OverLimit
            return
        # the x keeping every row's partial sum within reach of the
        # coordinates left, |p + c*x| <= rest, form one interval
        lo, hi = (0 if lead else -bounds[j]), bounds[j]
        for i, c, rest in touching[j]:
            p = partial[i]
            if c > 0:
                lo, hi = max(lo, -((rest + p) // c)), min(hi, (rest - p) // c)
            else:
                lo, hi = max(lo, -((rest - p) // -c)), min(hi, (rest + p) // -c)
        if budget is not None and hi >= lo:
            budget -= hi - lo + 1
            if budget < 0:
                raise _OverLimit
        for x in range(lo, hi + 1):
            point[j] = x
            for i, c, _ in touching[j]:
                partial[i] += c * x
            descend(j + 1, lead and x == 0)
            for i, c, _ in touching[j]:
                partial[i] -= c * x
        point[j] = 0

    try:
        descend(0, True)
    except _OverLimit:
        return None
    return found


def conformally_minimal(vectors, n: int) -> list[Vec]:
    """Members of a set of distinct canonical vectors with no other
    member conformally below them (up to sign).

    Runs the completion's vectorized sign-mask scan over the given set.
    """
    state = _Completion(n)
    if vectors:
        state.add_block(list(vectors))
    return _minimal_filter(state)


def graver_oracle(a: IntMatrix, bound: int) -> frozenset[Vec]:
    """Independent brute force: conformally minimal kernel vectors with
    max-norm at most ``bound``.

    Enumeration by box_kernel_vectors, then a naive quadratic
    minimality filter.  Meant for small verification runs.
    """
    if bound < 0:
        raise ValueError("graver_oracle: bound must be nonnegative")
    reps = sorted(box_kernel_vectors(a, (bound,) * a.cols))
    minimal = []
    for v in reps:
        neg = tuple(-x for x in v)
        if not any(g != v and (conformal_leq(g, v) or conformal_leq(g, neg))
                   for g in reps):
            minimal.append(v)
    return frozenset(minimal)


def verify_against_oracle(a: IntMatrix, basis: GraverBasis, factor: int = 2) -> bool:
    """Re-derive the basis by enumeration inside a box covering it.

    The box bound is ``factor`` times the largest max-norm in the
    computed basis, so any spurious or missing element up to that size
    is caught.
    """
    if not basis.elements:
        bound = factor
    else:
        bound = factor * max(max(abs(x) for x in v) for v in basis.elements)
    return graver_oracle(a, bound) == basis.elements


def project_first_n(vectors, n: int) -> frozenset[Vec]:
    """Canonical representatives of nonzero leading-n projections."""
    out = set()
    for v in vectors:
        head = tuple(v[:n])
        if any(head):
            out.add(canonical_rep(head))
    return frozenset(out)


def _split_range(p: int):
    """All (v, w) with v - w = p, v*w <= 0."""
    if p >= 0:
        return [(x, x - p) for x in range(0, p + 1)]
    return [(x, x - p) for x in range(p, 1)]


def _join_range(p: int):
    """All (v, w) with v + w = p, v*w >= 0."""
    if p >= 0:
        return [(x, p - x) for x in range(0, p + 1)]
    return [(x, p - x) for x in range(p, 1)]


def expand_negated_column(g: GraverBasis) -> GraverBasis:
    """From the basis of (A|a), the basis of (A|a|-a).

    Each element (u, p) splits its last entry into all opposite-sign
    pairs v - w = p; the swap vector (0,..,0,1,1) joins the set.  The
    split column a must be nonzero: a zero column makes each of the two
    new unit vectors a kernel element on its own, and the swap vector
    stops being minimal.
    """
    n = g.dimension - 1
    out: set[Vec] = set()
    for rep in g.elements:
        for v in (rep, tuple(-x for x in rep)):
            u, p = v[:n], v[n]
            for a, b in _split_range(p):
                out.add(canonical_rep(u + (a, b)))
    out.add((0,) * n + (1, 1))
    return GraverBasis(g.dimension + 1, frozenset(out),
                       source="negated-column(%s)" % g.source)


def expand_duplicated_column(g: GraverBasis) -> GraverBasis:
    """From the basis of (A|a), the basis of (A|a|a).

    Each element (u, p) splits its last entry into all same-sign pairs
    v + w = p; the exchange vector (0,..,0,1,-1) joins the set.  As
    with the negated split, the column a must be nonzero for the
    exchange vector to be minimal.
    """
    n = g.dimension - 1
    out: set[Vec] = set()
    for rep in g.elements:
        for v in (rep, tuple(-x for x in rep)):
            u, p = v[:n], v[n]
            for a, b in _join_range(p):
                out.add(canonical_rep(u + (a, b)))
    out.add((0,) * n + (1, -1))
    return GraverBasis(g.dimension + 1, frozenset(out),
                       source="duplicated-column(%s)" % g.source)
