"""Exact integer linear algebra primitives.

All arithmetic uses Python's arbitrary-precision integers, so nothing
here can overflow or round.  Vectors are plain tuples of ints; matrices
are immutable row-major grids that remember their shape explicitly,
because a 0xN matrix is meaningful (its kernel is all of Z^N).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index
from typing import Iterable, Sequence

Vec = tuple[int, ...]


class ParseError(ValueError):
    """Raised when a text input does not match the expected format."""


def conformal_leq(u: Sequence[int], v: Sequence[int]) -> bool:
    """Componentwise sign-compatible dominance: u_j*v_j >= 0 and |u_j| <= |v_j|."""
    if len(u) != len(v):
        raise ValueError("conformal_leq: dimension mismatch (%d vs %d)" % (len(u), len(v)))
    for a, b in zip(u, v):
        if a * b < 0 or abs(a) > abs(b):
            return False
    return True


def as_int(x) -> int:
    """operator.index(x), a ValueError for a float or other non-integer."""
    try:
        return index(x)
    except TypeError as e:
        raise ValueError(str(e)) from None


def canonical_rep(v: Sequence[int]) -> Vec:
    """Of v and -v, the one whose first nonzero entry is positive.

    The zero vector has no canonical representative.
    """
    for a in v:
        if a > 0:
            return tuple(v)
        if a < 0:
            return tuple(-x for x in v)
    raise ValueError("canonical_rep: zero vector has no representative")


def negate(v: Sequence[int]) -> Vec:
    return tuple(-x for x in v)


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    if len(u) != len(v):
        raise ValueError("dot: dimension mismatch")
    return sum(a * b for a, b in zip(u, v))


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix with an explicit shape.

    rows may be 0; cols must be at least 1.
    """

    rows: int
    cols: int
    entries: tuple[Vec, ...]

    def __post_init__(self) -> None:
        if self.cols < 1:
            raise ValueError("IntMatrix: need at least one column")
        if self.rows < 0 or len(self.entries) != self.rows:
            raise ValueError("IntMatrix: row count does not match entries")
        for r in self.entries:
            if len(r) != self.cols:
                raise ValueError("IntMatrix: ragged row")

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        """Entries through as_int: a float is a ValueError, not truncated."""
        ent = tuple(tuple(map(as_int, r)) for r in rows)
        if cols is None:
            if not ent:
                raise ValueError("IntMatrix.from_rows: empty matrix needs explicit cols")
            cols = len(ent[0])
        return cls(len(ent), cols, ent)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, tuple((0,) * cols for _ in range(rows)))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def row(self, i: int) -> Vec:
        return self.entries[i]

    def column(self, j: int) -> Vec:
        return tuple(r[j] for r in self.entries)

    def mat_vec(self, v: Sequence[int]) -> Vec:
        if len(v) != self.cols:
            raise ValueError("mat_vec: dimension mismatch")
        return tuple(dot(r, v) for r in self.entries)


def euclid_reduce(rows: list[list[int]], live: Iterable[int], k: int) -> int | None:
    """Reduce entry k over the rows indexed by live, in place, until at
    most one of them is nonzero there; that row's index, or None.

    Each pass subtracts floor-quotient multiples of the live row with
    the least nonzero |entry k| (the first in live order) from the
    others: unimodular row operations only."""
    live = [i for i in live if rows[i][k]]
    while len(live) > 1:
        p = min(live, key=lambda i: abs(rows[i][k]))
        for i in live:
            q = rows[i][k] // rows[p][k]
            if i != p and q:
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[p])]
        live = [i for i in live if rows[i][k]]
    return live[0] if live else None


def kernel_lattice_basis(a: IntMatrix) -> list[Vec]:
    """Basis of the saturated lattice {v in Z^n : Av = 0}.

    Integer column reduction: each column j of A is kept as one row
    [A column j | U column j] with U = I at the start, and euclid_reduce
    brings A to column echelon form, one row of A after another, while
    the same unimodular operations accumulate in U.  The U parts of the
    columns left zero in A are the kernel basis.  Exact throughout.
    """
    d, n = a.rows, a.cols
    cols = [list(a.column(j)) + [int(i == j) for i in range(n)] for j in range(n)]
    r = 0
    for i in range(d):
        j = euclid_reduce(cols, range(r, n), i)
        if j is not None:
            cols[r], cols[j] = cols[j], cols[r]
            r += 1
    return [tuple(col[d:]) for col in cols[r:]]


# ---------------------------------------------------------------------------
# text format: first line "rows cols", then row-major integer entries

def format_int_matrix(a: IntMatrix) -> str:
    lines = ["%d %d" % (a.rows, a.cols)]
    lines.extend(" ".join(str(x) for x in r) for r in a.entries)
    return "\n".join(lines) + "\n"


def split_matrix_text(text: str) -> tuple[int, int, list[str]]:
    """Shape and body tokens of a matrix text, for any entry type.

    The header must give rows >= 0 and cols >= 1, and the body must
    hold exactly rows * cols tokens; both are checked before a caller
    builds anything of that shape.
    """
    tokens = text.split()
    if len(tokens) < 2:
        raise ParseError("matrix header: expected 'rows cols'")
    try:
        rows, cols = int(tokens[0]), int(tokens[1])
    except ValueError:
        raise ParseError("matrix header: expected two integers, got %r %r"
                         % (tokens[0], tokens[1])) from None
    if rows < 0 or cols < 1:
        raise ParseError("matrix header: invalid shape %d x %d" % (rows, cols))
    body = tokens[2:]
    if len(body) != rows * cols:
        raise ParseError("matrix body: expected %d entries, got %d"
                         % (rows * cols, len(body)))
    return rows, cols, body


def parse_int_matrix(text: str) -> IntMatrix:
    rows, cols, body = split_matrix_text(text)
    try:
        vals = [int(t) for t in body]
    except ValueError as e:
        raise ParseError("matrix body: non-integer entry (%s)" % e) from None
    ent = tuple(tuple(vals[i * cols:(i + 1) * cols]) for i in range(rows))
    return IntMatrix(rows, cols, ent)


def parse_int_vector(text: str) -> Vec:
    try:
        return tuple(int(t) for t in text.split())
    except ValueError as e:
        raise ParseError("vector: non-integer entry (%s)" % e) from None
