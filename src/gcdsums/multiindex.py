"""Sparse multi-indices: finitely supported exponent sequences at 1-based positions.

A multi-index encodes the prime factorization of a positive integer:
position j carries the exponent of the j-th prime.  Values are immutable,
hashable, and totally ordered by their canonical (position, exponent) tuple.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .errors import DomainError, PrimeRangeError
from .primes import DEFAULT_TABLE, PrimeTable, factorize


class MultiIndex:
    __slots__ = ("_items", "_map")

    def __init__(self, exponents: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        if isinstance(exponents, Mapping):
            pairs = exponents.items()
        else:
            pairs = tuple(exponents)
        cleaned = {}
        for j, e in pairs:
            j = int(j)
            e = int(e)
            if j < 1:
                raise DomainError(f"position must be >= 1, got {j}")
            if e < 0:
                raise DomainError(f"exponent must be >= 0, got {e}")
            if e == 0:
                continue
            if j in cleaned:
                raise DomainError(f"duplicate position {j}")
            cleaned[j] = e
        self._items = tuple(sorted(cleaned.items()))
        self._map = cleaned

    @classmethod
    def zero(cls) -> "MultiIndex":
        return _ZERO

    @classmethod
    def unit(cls, j: int) -> "MultiIndex":
        return cls({j: 1})

    @property
    def items(self) -> tuple[tuple[int, int], ...]:
        return self._items

    def exponent(self, j: int) -> int:
        return self._map.get(j, 0)

    def support(self) -> frozenset[int]:
        return frozenset(self._map)

    def max_index(self) -> int:
        """Largest supported position; 0 for the zero multi-index."""
        return self._items[-1][0] if self._items else 0

    def is_square_free(self) -> bool:
        return all(e <= 1 for _, e in self._items)

    def with_unit_added(self, j: int) -> "MultiIndex":
        m = dict(self._map)
        m[j] = m.get(j, 0) + 1
        return MultiIndex(m)

    def with_unit_removed(self, j: int) -> "MultiIndex":
        if self._map.get(j, 0) < 1:
            raise DomainError(f"position {j} has exponent 0")
        m = dict(self._map)
        m[j] -= 1
        return MultiIndex(m)

    def __add__(self, other: "MultiIndex") -> "MultiIndex":
        m = dict(self._map)
        for j, e in other._items:
            m[j] = m.get(j, 0) + e
        return MultiIndex(m)

    def __sub__(self, other: "MultiIndex") -> "MultiIndex":
        if not leq(other, self):
            raise DomainError("subtraction would give a negative exponent")
        m = dict(self._map)
        for j, e in other._items:
            m[j] -= e
        return MultiIndex(m)

    def __eq__(self, other) -> bool:
        return isinstance(other, MultiIndex) and self._items == other._items

    def __hash__(self) -> int:
        return hash(self._items)

    def __lt__(self, other: "MultiIndex") -> bool:
        return self._items < other._items

    def __le__(self, other: "MultiIndex") -> bool:
        return self._items <= other._items

    def __gt__(self, other: "MultiIndex") -> bool:
        return self._items > other._items

    def __ge__(self, other: "MultiIndex") -> bool:
        return self._items >= other._items

    def __str__(self) -> str:
        return format_multiindex(self)

    def __repr__(self) -> str:
        return f"MultiIndex({dict(self._items)!r})"


_ZERO = MultiIndex()


def abs_diff(a: MultiIndex, b: MultiIndex) -> MultiIndex:
    """Componentwise |a - b|."""
    m = dict(a._map)
    for j, e in b.items:
        m[j] = abs(m.get(j, 0) - e)
    return MultiIndex(m)


def leq(a: MultiIndex, b: MultiIndex) -> bool:
    """True iff a <= b componentwise (a's integer divides b's)."""
    return all(e <= b.exponent(j) for j, e in a.items)


def support(a: MultiIndex) -> frozenset[int]:
    return a.support()


def is_square_free(a: MultiIndex) -> bool:
    return a.is_square_free()


def to_mask(a: MultiIndex) -> int:
    """Bitmask of a square-free multi-index: bit j - 1 is set iff position j
    is supported.  Python ints, so there is no position limit."""
    mask = 0
    for j, e in a.items:
        if e != 1:
            raise DomainError(f"{format_multiindex(a)} is not square-free")
        mask |= 1 << (j - 1)
    return mask


def from_mask(mask: int) -> MultiIndex:
    """Square-free multi-index of a bitmask; inverse of to_mask."""
    if mask < 0:
        raise DomainError(f"mask must be >= 0, got {mask}")
    return MultiIndex({b + 1: 1 for b in range(mask.bit_length()) if mask >> b & 1})


def factors_in_scope(n: int, table: PrimeTable = DEFAULT_TABLE) -> dict[int, int]:
    """Prime -> exponent for n >= 1, with PrimeRangeError for a prime factor
    above the table's ceiling; the table is not touched."""
    n = int(n)
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    factors = factorize(n)
    top = max(factors, default=1)
    if top > table.ceiling:
        raise PrimeRangeError(
            f"prime factor {top} of {n} exceeds the prime table ceiling {table.ceiling}"
        )
    return factors


def ranked_items(
    factors: Iterable[Mapping[int, int]], table: PrimeTable = DEFAULT_TABLE
) -> list[tuple[tuple[int, int], ...]]:
    """Each factorization's (position, exponent) pairs, ascending: the primes
    of all of them ranked by one `table.ranks` call, so that primes between
    the same two marks share one window."""
    factors = list(factors)
    primes = sorted({p for f in factors for p in f})
    rank = dict(zip(primes, table.ranks(primes)))
    return [tuple((rank[p], e) for p, e in sorted(f.items())) for f in factors]


def from_integer(n: int, table: PrimeTable = DEFAULT_TABLE) -> MultiIndex:
    """Multi-index of n's prime factorization; from_integer(1) is zero.

    A prime factor above the table's ceiling raises PrimeRangeError before
    any rank is sought (`factors_in_scope`); the others are ranked together
    (`ranked_items`).
    """
    return MultiIndex(ranked_items([factors_in_scope(n, table)], table)[0])


def to_integer(a: MultiIndex, table: PrimeTable = DEFAULT_TABLE) -> int:
    """Integer encoded by a; inverse of from_integer."""
    n = 1
    for j, e in a.items:
        n *= table.prime(j) ** e
    return n


def format_items(items: Iterable[tuple[int, int]]) -> str:
    """Text form of (position, exponent) pairs: `mi 1:2 3:1` (bare `mi` for none)."""
    return "".join(["mi", *(f" {j}:{e}" for j, e in items)])


def format_multiindex(a: MultiIndex) -> str:
    """Text form: `mi 1:2 3:1` (bare `mi` for zero)."""
    return format_items(a.items)


MAX_PARSE_INDEX = 10 ** 6
MAX_PARSE_EXPONENT = 10 ** 4


def parse_items(text: str) -> list[tuple[int, int]]:
    """The (position, exponent) pairs of the `mi j:e ...` text form;
    positions must be strictly increasing, below a cap of 10^6, and
    exponents within [1, 10^4]."""
    tokens = text.split()
    if not tokens or tokens[0] != "mi":
        raise DomainError(f"expected 'mi' prefix, got {text!r}")
    pairs = []
    last = 0
    for tok in tokens[1:]:
        head, sep, tail = tok.partition(":")
        if not sep:
            raise DomainError(f"malformed entry {tok!r} (want position:exponent)")
        try:
            j, e = int(head), int(tail)
        except ValueError:
            raise DomainError(f"malformed entry {tok!r} (want position:exponent)") from None
        if j <= last:
            raise DomainError(f"positions must be strictly increasing (saw {j} after {last})")
        if j > MAX_PARSE_INDEX:
            raise DomainError(f"position {j} exceeds the cap {MAX_PARSE_INDEX}")
        if not 1 <= e <= MAX_PARSE_EXPONENT:
            raise DomainError(f"exponent {e} outside [1, {MAX_PARSE_EXPONENT}]")
        pairs.append((j, e))
        last = j
    return pairs


def parse_multiindex(text: str) -> MultiIndex:
    """Parse the `mi j:e ...` text form (see `parse_items`)."""
    return MultiIndex(parse_items(text))
