"""Separable objectives built from one-dimensional discrete-convex pieces.

Every piece g maps Z to Q with g(0) = 0, has nondecreasing increments
g(j) - g(j-1), and attains its minimum at 0 (increments are <= 0 left
of the origin, >= 0 right of it).  An objective is a sum of pieces
composed with integer linear forms, plus a rational linear part.

g(0) = 0 is what lets SeparableObjective.value work over supports: a
term whose argument is 0 adds nothing and is not evaluated, and only
the nonzero coefficients of a term's row and the nonzero coordinates
of the point enter its sums.  The result is the same exact Fraction
as the dense sum over every term and coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate
from operator import index
from typing import Sequence

from .core import IntMatrix, ParseError, Vec, as_int
from .testset import FAMILY_CACHE_SIZE


def _as_fraction(x) -> Fraction:
    """x itself if it is a Fraction (they are immutable), else Fraction(x)."""
    return x if type(x) is Fraction else Fraction(x)


class DiscreteConvexFn:
    """One-dimensional piece; subclasses define value(x)."""

    def value(self, x: int) -> Fraction:
        raise NotImplementedError

    def increment(self, j: int) -> Fraction:
        """g(j) - g(j-1)."""
        return self.value(j) - self.value(j - 1)


@dataclass(frozen=True)
class Zero(DiscreteConvexFn):
    def value(self, x: int) -> Fraction:
        return Fraction(0)


@dataclass(frozen=True)
class ScaledEvenPower(DiscreteConvexFn):
    """alpha * x**exponent with alpha > 0 and an even exponent >= 2."""

    alpha: Fraction
    exponent: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", _as_fraction(self.alpha))
        if self.alpha <= 0:
            raise ValueError("ScaledEvenPower: alpha must be positive")
        if as_int(self.exponent) < 2 or self.exponent % 2:
            raise ValueError("ScaledEvenPower: exponent must be even and >= 2")

    def value(self, x: int) -> Fraction:
        return self.alpha * x ** self.exponent


@dataclass(frozen=True)
class ScaledAbs(DiscreteConvexFn):
    alpha: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", _as_fraction(self.alpha))
        if self.alpha <= 0:
            raise ValueError("ScaledAbs: alpha must be positive")

    def value(self, x: int) -> Fraction:
        return self.alpha * abs(x)


@dataclass(frozen=True)
class GeometricAbs(DiscreteConvexFn):
    """base**|x| - 1 for a rational base > 1."""

    base: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "base", _as_fraction(self.base))
        if self.base <= 1:
            raise ValueError("GeometricAbs: base must exceed 1")

    def value(self, x: int) -> Fraction:
        return self.base ** abs(x) - 1


@dataclass(frozen=True)
class PiecewiseTable(DiscreteConvexFn):
    """Increments tabulated on a finite window [lo, hi] of integers.

    increments maps j to g(j) - g(j-1).  Queries outside the window
    raise unless extend=True, which continues with the boundary
    increment (a convexity-preserving growth rule).  A table that
    check_convex_window refuses over its whole window is a ValueError.
    It keeps the running sums S of its increments over [lo - 1, hi].
    """

    increments: tuple[tuple[int, Fraction], ...]
    extend: bool = False
    _sums: tuple[Fraction, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        items = self.increments
        if isinstance(items, dict):
            items = items.items()
        norm = tuple(sorted((as_int(j), _as_fraction(v)) for j, v in items))
        if not norm:
            raise ValueError("PiecewiseTable: empty increment table")
        keys = [j for j, _ in norm]
        if keys != list(range(keys[0], keys[-1] + 1)):
            raise ValueError("PiecewiseTable: window must be contiguous")
        object.__setattr__(self, "increments", norm)
        object.__setattr__(self, "_sums",
                           tuple(accumulate((v for _, v in norm), initial=Fraction(0))))
        if not check_convex_window(self, keys[0] - 1, keys[-1]):
            raise ValueError("increments must not decrease, and must be <= 0 "
                             "up to 0 and >= 0 from 1")

    def increment(self, j: int) -> Fraction:
        (lo, first), (hi, last) = self.increments[0], self.increments[-1]
        if lo <= j <= hi:
            return self.increments[j - lo][1]
        if not self.extend:
            raise ValueError("PiecewiseTable: increment %d outside window [%d, %d]"
                             % (j, lo, hi))
        return first if j < lo else last

    def _sum(self, t: int) -> Fraction:
        """S(t), S(lo - 1) = 0, continued past the window by its boundary increments."""
        (lo, first), (hi, last) = self.increments[0], self.increments[-1]
        return (self._sums[min(max(t, lo - 1), hi) - lo + 1]
                + min(t - lo + 1, 0) * first + max(t - hi, 0) * last)

    def value(self, x: int) -> Fraction:
        """Sum of the increments of [1, x], or minus those of [x+1, 0]:
        S(x) - S(0), at O(1) cost whatever x and the window."""
        a, b = (1, x) if x >= 0 else (x + 1, 0)
        lo, hi = self.increments[0][0], self.increments[-1][0]
        if a <= b and not self.extend and (a < lo or b > hi):
            self.increment(a if a < lo else max(a, hi + 1))  # raises
        return self._sum(x) - self._sum(0)


def check_convex_window(g: DiscreteConvexFn, lo: int, hi: int) -> bool:
    """Nondecreasing increments on [lo, hi], minimum at 0.

    Examines g(j) - g(j-1) for lo < j <= hi; increments must not
    decrease, must be <= 0 for j <= 0 and >= 0 for j >= 1.
    """
    if lo >= hi:
        raise ValueError("check_convex_window: need lo < hi")
    prev = None
    for j in range(lo + 1, hi + 1):
        inc = g.increment(j)
        if prev is not None and inc < prev:
            return False
        if j <= 0 and inc > 0:
            return False
        if j >= 1 and inc < 0:
            return False
        prev = inc
    return True


@lru_cache(maxsize=FAMILY_CACHE_SIZE)
def _row_support(key: tuple[int, Vec]) -> tuple:
    """The (j, c_j) with c_j != 0 of the row key[1], whose id is key[0];
    a TypeError unless its entries are integers.

    Kept for the last FAMILY_CACHE_SIZE rows, so the terms of encodings
    that share their row tuples (qap.to_cip) share their supports.  The
    id is in the key because (1.0,) == (1,) with equal hashes: a cached
    key holds its row alive, so no other object has its id, and a row
    equal to a cached one but another object is checked afresh."""
    return tuple((j, c) for j, c in enumerate(map(index, key[1])) if c)


@dataclass(frozen=True)
class Term:
    """One composed piece: fn(coeffs . z + offset)."""

    fn: DiscreteConvexFn
    coeffs: Vec
    offset: int = 0


@dataclass(frozen=True)
class SeparableObjective:
    n: int
    terms: tuple[Term, ...]
    linear: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "linear", tuple(map(_as_fraction, self.linear)))
        if len(self.linear) != self.n:
            raise ValueError("SeparableObjective: linear part has wrong length")
        if any(len(t.coeffs) != self.n for t in self.terms):
            raise ValueError("SeparableObjective: term coefficients have wrong length")
        self._supports  # checks the coefficients and offsets once, when built

    @cached_property
    def _supports(self) -> tuple[tuple, tuple]:  # not a field: ==, hash, repr ignore it
        """Each term as (fn, offset, its (j, c_j) with c_j != 0), and the
        linear part's (j, l_j) with l_j != 0; checks c and offset are ints."""
        try:
            terms = tuple((t.fn, index(t.offset), _row_support((id(t.coeffs), t.coeffs)))
                          for t in self.terms)
        except TypeError as e:
            raise ValueError("SeparableObjective: term coefficients and offsets "
                             "must be integers: %s" % e) from None
        return terms, tuple((j, c) for j, c in enumerate(self.linear) if c)

    @cached_property
    def composition_matrix(self) -> IntMatrix:  # not a field either
        """C, the family's composition matrix: the terms' coefficient rows
        in term order, each distinct nonzero row once."""
        rows = tuple(dict.fromkeys(t.coeffs for t in self.terms if any(t.coeffs)))
        return IntMatrix(len(rows), self.n, rows)

    def value(self, z: Sequence[int]) -> Fraction:
        """f(z), exactly, over the supports only: a term whose argument
        is 0 adds g(0) = 0 and a coordinate z_j = 0 adds nothing, so
        neither is evaluated."""
        if len(z) != self.n:
            raise ValueError("objective value: point has wrong dimension")
        terms, linear = self._supports
        total = Fraction(0)
        for fn, x, support in terms:
            for j, c in support:
                x += c * z[j]
            if x:
                total += fn.value(x)
        for j, c in linear:
            x = z[j]
            if x:
                total += c * x
        return total


def linear_objective(c: Sequence) -> SeparableObjective:
    cs = tuple(Fraction(x) for x in c)
    return SeparableObjective(len(cs), (), cs)


# ---------------------------------------------------------------------------
# text format: one line per term "<kind> <params> | coeffs | offset",
# one final line "linear | coeffs"; rational entries allowed as p/q.
# Each kind: keyword -> (class, its parameters as (attribute, parser of
# its token)), or None for a table: "extend" if it extends, then cells j:v.
_KINDS = {
    "zero": (Zero, ()),
    "evenpower": (ScaledEvenPower, (("alpha", Fraction), ("exponent", int))),
    "abs": (ScaledAbs, (("alpha", Fraction),)),
    "geomabs": (GeometricAbs, (("base", Fraction),)),
    "table": (PiecewiseTable, None),
}
_KEYWORDS = {cls: (kind, params) for kind, (cls, params) in _KINDS.items()}


def _format_fn(fn: DiscreteConvexFn) -> str:
    if type(fn) not in _KEYWORDS:
        raise ValueError("unknown function kind: %r" % (fn,))
    kind, params = _KEYWORDS[type(fn)]
    if params is None:
        words = ["extend"] * bool(fn.extend) + ["%d:%s" % cell for cell in fn.increments]
    else:
        words = [str(getattr(fn, name)) for name, _ in params]
    return " ".join([kind] + words)


def _parse_fn(text: str) -> DiscreteConvexFn:
    kind, *words = text.split() or [None]
    if kind not in _KINDS:
        raise ParseError("objective term: unknown kind %r" % kind if kind
                         else "objective term: missing function kind")
    cls, params = _KINDS[kind]
    try:
        if params is None:
            extend = words[:1] == ["extend"]
            cells = (cell.partition(":") for cell in words[extend:])
            return cls(tuple((int(j), Fraction(v)) for j, _, v in cells), extend=extend)
        if len(words) != len(params):
            raise ValueError("%s takes %d parameters, got %d"
                             % (kind, len(params), len(words)))
        return cls(*(parse(word) for (_, parse), word in zip(params, words)))
    except (ValueError, ZeroDivisionError) as e:
        raise ParseError("objective term %r: %s" % (text, e)) from None


def format_objective(obj: SeparableObjective) -> str:
    lines = ["%s | %s | %d" % (_format_fn(t.fn), " ".join(map(str, t.coeffs)), t.offset)
             for t in obj.terms]
    lines.append("linear | %s" % " ".join(str(x) for x in obj.linear))
    return "\n".join(lines) + "\n"


def parse_objective(text: str) -> SeparableObjective:
    terms: list[Term] = []
    linear: tuple[Fraction, ...] | None = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if linear is not None:
            raise ParseError("objective: content after the linear line")
        parts = [p.strip() for p in line.split("|")]
        if parts[0] == "linear":
            if len(parts) != 2:
                raise ParseError("objective: linear line needs one | separator")
            try:
                linear = tuple(Fraction(x) for x in parts[1].split())
            except (ValueError, ZeroDivisionError) as e:
                raise ParseError("objective linear part: %s" % e) from None
            continue
        if len(parts) != 3:
            raise ParseError("objective term needs two | separators: %r" % line)
        fn = _parse_fn(parts[0])
        try:
            coeffs = tuple(int(x) for x in parts[1].split())
            offset = int(parts[2])
        except ValueError as e:
            raise ParseError("objective term %r: %s" % (line, e)) from None
        terms.append(Term(fn, coeffs, offset))
    if linear is None:
        raise ParseError("objective: missing linear line")
    try:
        return SeparableObjective(len(linear), tuple(terms), linear)
    except ValueError as e:
        raise ParseError("objective: %s" % e) from None
