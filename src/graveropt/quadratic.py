"""Exact reformulation of rational quadratics as sums of squares.

Symmetric congruence Q = U^T D U over the rationals turns a positive
semidefinite Q into sum_i alpha_i (c_i^T z)^2 with primitive integer
rows c_i and positive rational alpha_i.  On 0/1 variables z_i^2 = z_i
additionally lets an indefinite Q trade diagonal mass against the
linear part, so any symmetric Q gets an exact separable form there.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

from .core import ParseError, Vec, canonical_rep, split_matrix_text

RatMatrix = tuple[tuple[Fraction, ...], ...]


def rat_matrix(rows: Sequence[Sequence]) -> RatMatrix:
    out = tuple(tuple(Fraction(x) for x in r) for r in rows)
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError("rat_matrix: ragged rows")
    return out


def is_symmetric(q: RatMatrix) -> bool:
    n = len(q)
    return all(len(r) == n for r in q) and \
        all(q[i][j] == q[j][i] for i in range(n) for j in range(i))


def _require_symmetric(q: RatMatrix) -> int:
    if not is_symmetric(q):
        raise ValueError("expected a square symmetric matrix")
    return len(q)


def congruence_diagonalize(q: RatMatrix) -> tuple[RatMatrix, tuple[Fraction, ...]]:
    """U, D with Q = U^T diag(D) U, U invertible, all exact.

    Symmetric Gaussian congruence.  A zero diagonal pivot is repaired
    by swapping in the first later row/column with nonzero diagonal or,
    failing that, by a congruence row/column addition that manufactures
    one.  Each step is a row operation S with M <- S M S^T, so U, which
    starts at I, takes the inverse transposed step U <- S^-T U: a swap
    swaps rows of U, row i += row j becomes u_j -= u_i, and
    row i -= f row k becomes u_k += f u_i.
    """
    n = _require_symmetric(q)
    m = [list(r) for r in q]
    u = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]

    def swap(i: int, j: int) -> None:
        m[i], m[j] = m[j], m[i]
        for row in m:
            row[i], row[j] = row[j], row[i]
        u[i], u[j] = u[j], u[i]

    def add_row(i: int, j: int) -> None:
        # congruence: row i += row j, then col i += col j
        m[i] = [x + y for x, y in zip(m[i], m[j])]
        for row in m:
            row[i] = row[i] + row[j]
        u[j] = [y - x for x, y in zip(u[i], u[j])]

    for k in range(n):
        if m[k][k] == 0:
            j = next((i for i in range(k + 1, n) if m[i][i]), None)
            if j is not None:
                swap(k, j)
            else:
                j = next((i for i in range(k + 1, n) if m[k][i]), None)
                if j is None:
                    continue  # row and column k vanish from k on: D_k = 0
                add_row(k, j)
        for i in range(k + 1, n):
            if m[i][k]:
                f = m[i][k] / m[k][k]
                m[i] = [x - f * y for x, y in zip(m[i], m[k])]
                for row in m:
                    row[i] = row[i] - f * row[k]
                u[k] = [x + f * y for x, y in zip(u[k], u[i])]
    return tuple(map(tuple, u)), tuple(m[i][i] for i in range(n))


def is_psd(q: RatMatrix) -> bool:
    _, d = congruence_diagonalize(q)
    return all(x >= 0 for x in d)


def is_positive_definite(q: RatMatrix) -> bool:
    _, d = congruence_diagonalize(q)
    return all(x > 0 for x in d)


def _integerize(row: Sequence[Fraction]) -> tuple[Vec, Fraction]:
    """Primitive integer vector c and kappa > 0 with row = kappa * c."""
    denom = 1
    for x in row:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) for x in row]
    g = 0
    for v in ints:
        g = gcd(g, v)
    ints = [v // g for v in ints]
    c = canonical_rep(ints)
    flip = -1 if c != tuple(ints) else 1
    return c, Fraction(flip * g, denom)


def to_separable(q: RatMatrix) -> tuple[tuple[Fraction, Vec], ...]:
    """Exact sum-of-squares form of a PSD matrix: terms (alpha_i, c_i)
    with Q = sum alpha_i c_i c_i^T, at most rank(Q) of them."""
    n = _require_symmetric(q)
    u, d = congruence_diagonalize(q)
    if any(x < 0 for x in d):
        raise ValueError("to_separable: matrix is not positive semidefinite")
    terms = []
    for i in range(n):
        if d[i] == 0:
            continue
        c, kappa = _integerize(u[i])
        terms.append((d[i] * kappa * kappa, c))
    return tuple(terms)


def reconstruct(terms: Sequence[tuple[Fraction, Sequence[int]]], n: int) -> RatMatrix:
    """sum alpha_i c_i c_i^T, for verification."""
    acc = [[Fraction(0)] * n for _ in range(n)]
    for alpha, c in terms:
        for i in range(n):
            if c[i]:
                for j in range(n):
                    if c[j]:
                        acc[i][j] += alpha * c[i] * c[j]
    return rat_matrix(acc)


def gershgorin_shift(q: RatMatrix) -> Fraction:
    """Largest row deficit: how far a diagonal sits below its off-row mass."""
    n = _require_symmetric(q)
    worst = Fraction(0)
    for i in range(n):
        off = sum((abs(q[i][j]) for j in range(n) if j != i), Fraction(0))
        worst = max(worst, off - q[i][i])
    return worst


def choose_lambda_bar(q: RatMatrix) -> Fraction:
    """Smallest shift from {0, g, 2g} making Q + shift*I positive
    definite, g > 0 being the Gershgorin deficit (or 1).

    Each row of Q + g*I has a diagonal entry at least the sum of its
    off-diagonal magnitudes, so with 2g every row is strictly
    diagonally dominant with a positive diagonal, and a symmetric such
    matrix is positive definite (Gershgorin).  Only 0 and g need a test.
    """
    n = _require_symmetric(q)
    g = gershgorin_shift(q)
    if g <= 0:
        g = Fraction(1)
    for cand in (Fraction(0), g):
        if is_positive_definite(_diag_absorbed(q, [cand] * n)):
            return cand
    return 2 * g


def _diag_absorbed(q: RatMatrix, delta: Sequence[Fraction]) -> RatMatrix:
    n = len(q)
    return tuple(tuple(q[i][j] + (delta[i] if i == j else 0) for j in range(n))
                 for i in range(n))


def binary_rephrase(q: RatMatrix, c: Sequence | None = None
                    ) -> tuple[tuple[tuple[Fraction, Vec], ...], tuple[Fraction, ...]]:
    """Terms and adjusted linear part with
    z^T Q z + c^T z = sum alpha_i (c_i^T z)^2 + cbar^T z on {0,1}^n.

    PSD matrices convert directly; a matrix whose negative entries are
    confined to the diagonal gets its diagonal raised to row dominance
    (the raise moves to the linear part via z_i^2 = z_i); anything else
    is shifted by choose_lambda_bar.  Each gives at most n terms.
    """
    n = _require_symmetric(q)
    cvec = tuple(Fraction(x) for x in (c if c is not None else [0] * n))
    if len(cvec) != n:
        raise ValueError("binary_rephrase: linear part has wrong length")
    if is_psd(q):
        return to_separable(q), cvec
    if all(q[i][j] >= 0 for i in range(n) for j in range(n) if i != j):
        delta = []
        for i in range(n):
            off = sum((q[i][j] for j in range(n) if j != i), Fraction(0))
            delta.append(max(Fraction(0), off - q[i][i]))
        return (to_separable(_diag_absorbed(q, delta)),
                tuple(x - dlt for x, dlt in zip(cvec, delta)))
    lam = choose_lambda_bar(q)
    return to_separable(_diag_absorbed(q, [lam] * n)), tuple(x - lam for x in cvec)


def binary_identity_holds(q: RatMatrix, c: Sequence,
                          terms: Sequence[tuple[Fraction, Sequence[int]]],
                          cbar: Sequence) -> bool:
    """Algebraic check of the {0,1}^n identity, valid for every n.

    The two sides agree on all binary points iff their off-diagonal
    quadratic parts match and the diagonals, folded into the linear
    parts, match too.
    """
    n = len(q)
    s = reconstruct(terms, n)
    for i in range(n):
        for j in range(n):
            if i != j and s[i][j] != q[i][j]:
                return False
    cvec = tuple(Fraction(x) for x in c)
    cb = tuple(Fraction(x) for x in cbar)
    for i in range(n):
        if cvec[i] + q[i][i] != cb[i] + s[i][i]:
            return False
    return True


# ---------------------------------------------------------------------------
# text format: like the integer matrix format, entries may be p/q

def parse_rat_matrix(text: str) -> RatMatrix:
    rows, cols, body = split_matrix_text(text)
    try:
        vals = [Fraction(t) for t in body]
    except (ValueError, ZeroDivisionError) as e:
        raise ParseError("matrix body: bad rational entry (%s)" % e) from None
    return tuple(tuple(vals[i * cols:(i + 1) * cols]) for i in range(rows))


def parse_rat_vector(text: str) -> tuple[Fraction, ...]:
    try:
        return tuple(Fraction(t) for t in text.split())
    except (ValueError, ZeroDivisionError) as e:
        raise ParseError("vector: bad rational entry (%s)" % e) from None
