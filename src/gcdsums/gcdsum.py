"""GCD sums over multi-index sets, their matrices, and spectral quantities.

An `IndexSet` is stored as rows: its universe (the sorted positions its
members use) and its int16 exponent matrix over the universe, a row per
member in canonical order.  Whether it is square-free is read off the rows,
and a square-free set caches its bitmasks as uint64 words (universe column i
is bit i % 64 of word i // 64).  Every kernel below reads these; `MultiIndex`
members are decoded from the rows only when a caller asks for them.

The central quantity is S(t, B) = sum over all ordered pairs (a, b) of B of
t^|a-b|, the form 1 . M 1 of the pair matrix M[a, b] = t^|a-b|.  A set has one
operator for M, chosen by `_operator` from the input alone; its `form` and
`apply` give the sum, row sums, weighted form and large-matrix matvec:
- `_Transform`, the Walsh-Hadamard transform of a square-free set on at most
  `_XOR_TABLE_MAX_BITS` positions, in O(m 2^m) instead of O(N^2), when the
  cost model `_transform_cheaper` prefers it;
- `_Divisors`, the divisor factorization M = T diag(c) T^T of any set the
  transform does not take, in O(sum_a prod_j (a_j + 1)) instead of O(N^2)
  times the positions (exponent rows) or slices (mask words) of a pair, when
  `_divisors_cheaper` prefers it;
- `_Pairs` otherwise, over the one blocked pair kernel `_pair_blocks`: products
  of lookups in XOR-indexed tables for square-free sets (one per slice of at
  most `_TABLE_SLICE_BITS` positions of a mask word, any number of positions),
  exponent-matrix blocks for any other set.
A cross sum takes `_Pairs` of one set against the other; dense matrices read
the pair blocks.  On a set closed under divisors T is square, and the lowest
eigenvalue comes from M^-1 = T^-T diag(1/c) T^-1 (`_inverse`): over the
(member, divisor) entries of T^-1 or on the subset lattice.  Sums are combined
with compensated summation in a fixed order, so results are deterministic.

The lcm closure of a square-free set takes the subset lattice when
`_lattice_cheaper` prefers it (zeta and Moebius transforms over the 2^m
subsets of the universe) and pairwise joins keyed as packed integers
otherwise.  `LcmClosure` computes every sum over (closure member, member)
pairs a <= c, for the square majorant `lcm_closure_bound` and the chain
certificate: by weighted zeta transforms on the lattice, otherwise over its
own blocks of closure rows with the row-range products of the pair blocks
(`_xor_products`, `_exp_products`).
"""

from __future__ import annotations

import math
import random
import sys
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import compress
from operator import or_
from typing import Callable, Iterable, Iterator, Sequence

import mpmath as mp
import numpy as np

from .errors import ConvergenceError, DomainError, DuplicateMemberError
from .multiindex import MultiIndex, factors_in_scope, ranked_items
from .weights import WeightSequence

_XOR_TABLE_MAX_BITS = 22  # the transform path's largest universe: arrays of 2^m floats
_TABLE_SLICE_BITS = 16  # positions per product table of the pair blocks
# Cost of one transform element against one gathered pair.  On a 2-vCPU x86
# VM (numpy 2.4) the transform path costs about 6 ns per element for m >= 14,
# where its fixed per-level numpy overhead no longer counts.  The pair blocks
# gathered at about 5.3 ns per pair in blocks of 4 M floats, where for m = 9..12
# the measured crossover lay between n^2 = 2 m 2^m and 4 m 2^m; in blocks of
# _BLOCK_BUDGET they gather at about 2-3.5 ns per pair for m = 14..16, and the
# crossover lies at 1.5-2.1 m 2^m for m = 12..16 and 4.4 m 2^m at m = 10.
_TRANSFORM_COST = 4
# Cost of one (member, divisor) entry of the divisor factorization against one
# exponent-block pair per position.  On a 2-vCPU x86 VM (numpy 2.4) the two
# paths broke even between 80 and 400 (median about 150) in blocks of 4 M
# floats on sets where either takes over 10 ms: 100-1000 random integers below
# 10^6 or 10^8, and 100-2000 smooth integers on 6-16 primes; in blocks of
# _BLOCK_BUDGET the exponent pairs are cheaper, and on 100-1000 random
# integers and 100-900 smooth ones the break-even lies between 180 and 660
# (median about 400).  A fixed cost of about 0.4 ms also favours the pairs on
# fewer than about 40 random integers.
_DIVISOR_COST = 150
# Dense storage and dense matvec up to this n.  The lowest eigenvalue takes
# the dense solve up to here too, unless the set is closed under divisors and
# `_inverse` finds Lanczos on M^-1 cheaper.
_DENSE_CAP = 4096
# Costs of the lowest eigenvalue's paths in ns, on a 2-vCPU x86 VM (numpy 2.4,
# OpenBLAS, best of 5).  Dense eigvalsh took 0.15-0.2 ns n^3 for n = 250-300,
# 0.11 at n = 500 and 0.06 from n = 700 on (its 8-40 ms for n = 80-200 is an
# OpenBLAS threading stall, left out).  Lanczos on M^-1 converged in 20-30
# steps on every set closed under divisors tried.  Closure test, build and
# solve took about 1 ms plus 250-320 ns per (member, divisor) entry on random
# downsets of 150-8000 members, and 1 ms plus 100-400 ns per element of
# m 2^m on the lattice, on cubes and downsets of 8-15 positions.
_EIGVALSH_NS = 0.1  # per n^3
_INVERSE_NS = 1_000_000
_INVERSE_ENTRY_NS = 300
_INVERSE_LATTICE_NS = 250
_INVERSE_WORDS = 8  # words per entry live while `_InverseDivisors` builds them
# Floats per pair block: 512 KB an array, so the two or three arrays a block
# keeps live fit a 2 MB L2 cache.  On a 2-vCPU x86 VM (numpy 2.4) 2^15 and
# 2^17 were no faster, and at 2^17 exponent blocks ran three times slower.
_BLOCK_BUDGET = 1 << 16
_DIVISOR_WORDS = 8_000_000  # words the divisor factorization's arrays may hold
_BASIS_ROWS = 64  # Lanczos basis vectors per block
# Largest Lanczos tridiagonal T_k solved densely (np.linalg.eigh), which up to
# here takes 0.1 ms against 0.2 ms for `_ritz`.  On a 2-vCPU x86 VM (numpy 2.4,
# OpenBLAS) the dense solve takes 15 ms on some calls from k = 28 on, 270 ms
# against 6 ms at k = 1257, and its k x k arrays hold 60 MB there.
_DENSE_RITZ_MAX = 24
_EXPONENT_CAP = 30_000  # exponents fit the int16 rows, and differences of two an int32
# Largest mask list `IndexSet.from_masks` sorts in Python: below about 30-40
# masks a sort keyed on each mask's positions beats the fixed cost of the
# numpy calls of `IndexSet._sort` (2-vCPU x86 VM, numpy 2.4)
_PYTHON_SORT_MAX = 32


class IndexSet:
    """A finite set of distinct multi-indices in canonical (sorted) order.

    Its state is its universe (the sorted positions its members use) and its
    read-only int16 exponent matrix over the universe, a row per member in
    canonical order, exponents at most 30 000; whether it is square-free is
    read off the matrix.  Members given as `MultiIndex` objects are encoded
    to rows by `_item_rows`.  Every constructor sorts rows with one
    `np.lexsort` (`_sort`), except that `from_masks` sorts short mask lists
    in Python.

    Cached on first use: for a square-free set, the uint64 mask words over
    the universe (`masks`) and the Python-int position masks
    (`position_masks`); for any set, the members as `MultiIndex` objects,
    decoded from the rows only when `members`, iteration, `in`, `as_set` or
    `hash` asks for them.  `member_strings` formats the members' text form
    from the rows, with no `MultiIndex`.
    """

    __slots__ = ("_universe", "_rows", "_square_free", "_words", "_position_masks",
                 "_members", "_set")

    def __init__(self, members: Iterable[MultiIndex]):
        members = list(members)
        order = self._encode(*_item_rows(m.items for m in members))
        self._members = tuple([members[i] for i in order.tolist()])

    def _store(self, universe: tuple[int, ...], rows: np.ndarray, square_free: bool) -> None:
        """Take canonical int16 rows over the universe as this set's state."""
        self._universe = universe
        self._rows = rows
        rows.flags.writeable = False
        self._square_free = square_free
        self._words = self._position_masks = self._members = self._set = None

    def _encode(self, universe: Sequence[int], rows: np.ndarray) -> np.ndarray:
        """Check distinct rows of exponents over the universe, given in any
        order, drop their all-zero columns and take them as this set's state
        (`_sort`); returns the order that sorts them."""
        if not len(rows):
            raise DomainError("an index set must be nonempty")
        universe = tuple(map(int, universe))
        if rows.ndim != 2 or rows.shape[1] != len(universe):
            raise DomainError(f"rows of shape {rows.shape} do not lie over {len(universe)} positions")
        low, top = int(rows.min(initial=0)), int(rows.max(initial=0))
        if low < 0:
            raise DomainError(f"exponent must be >= 0, got {low}")
        _check_exponent(top)
        keep = rows.any(axis=0)
        if not keep.all():
            rows = rows[:, keep]
            universe = tuple(compress(universe, keep.tolist()))
        if universe and (universe[0] < 1 or not all(map(int.__lt__, universe, universe[1:]))):
            raise DomainError("universe positions must be >= 1 and strictly increasing")
        return self._sort(universe, rows, top)

    def _sort(self, universe: tuple[int, ...], rows: np.ndarray, top: int) -> np.ndarray:
        """Take rows of exponents at most `top` over the universe, every
        column used, as this set's state in canonical order; returns the
        order that sorts them.

        The canonical order is that of the members' (position, exponent)
        tuples, a prefix first.  Compared column by column, two rows first
        differ where one has the smaller exponent, or where one has a gap:
        a zero before its last nonzero entry, which sorts after every
        exponent (the other member's next position comes first).  So each
        row is keyed by its exponents with such gaps raised to top + 1, the
        columns packed into as few int64 words as hold them, most
        significant first, and one `np.lexsort` over the words sorts the
        rows; two equal adjacent keys are a duplicate (`DuplicateMemberError`).
        """
        n, m = rows.shape
        present = rows > 0
        column = np.arange(1, m + 1)
        last = np.maximum.reduce(present * column, axis=1, initial=0)  # 1-based; 0 for the zero row
        key = rows + (~present & (column < last[:, None])) * np.int16(top + 1)
        bits = (top + 1).bit_length()
        per = 63 // bits
        words = [key[:, s : s + per] @ (1 << bits * np.arange(min(per, m - s) - 1, -1, -1))
                 for s in range(0, m, per)] or [np.zeros(n, dtype=np.int64)]
        order = np.lexsort(words[::-1])
        ranked = np.column_stack(words)[order]
        same = (ranked[1:] == ranked[:-1]).all(axis=1)
        if same.any():
            raise DuplicateMemberError("members must be pairwise distinct", _first_repeat(order, same))
        self._store(universe, rows[order].astype(np.int16, copy=False), top <= 1)
        return order

    @classmethod
    def from_rows(cls, universe: Sequence[int], rows: np.ndarray) -> "IndexSet":
        """The set of the distinct rows of exponents over the universe, given
        in any order; the rows, in canonical order and without all-zero
        columns, become its exponent matrix."""
        out = cls.__new__(cls)
        out._encode(universe, np.asarray(rows))
        return out

    @classmethod
    def from_masks(cls, masks: Iterable[int]) -> "IndexSet":
        """The square-free set of distinct Python-int position masks (bit
        j - 1 set iff position j is supported), any number of positions."""
        masks = list(masks)
        if not masks:
            raise DomainError("an index set must be nonempty")
        low = min(masks)
        if low < 0:
            raise DomainError(f"mask must be >= 0, got {low}")
        small = len(masks) <= _PYTHON_SORT_MAX
        if small:
            # a square-free member's ascending positions order it, a prefix
            # first; sorting on them skips the numpy calls of `_sort`
            masks.sort(key=_set_bits)
            if len(set(masks)) != len(masks):
                raise DomainError("members must be pairwise distinct")
        bits = _set_bits(reduce(or_, masks, 0))
        if not bits or bits[-1] < 64:
            words = np.array(masks, dtype="<u8").view(np.uint8).reshape(len(masks), 8)
            rows = np.unpackbits(words, axis=1, bitorder="little")[:, bits]
        else:
            column = {b: i for i, b in enumerate(bits)}
            rows = np.zeros((len(masks), len(bits)), dtype=np.uint8)
            for r, x in enumerate(masks):
                rows[r, [column[b] for b in _set_bits(x)]] = 1
        out = cls.__new__(cls)
        universe = tuple([b + 1 for b in bits])
        if small:
            out._store(universe, rows.astype(np.int16), True)
        else:
            masks = [masks[i] for i in out._sort(universe, rows, 1).tolist()]
        out._position_masks = tuple(masks)
        return out

    @property
    def members(self) -> tuple[MultiIndex, ...]:
        if self._members is None:
            u = np.array(self._universe, dtype=np.int64)
            members = []
            # entries become lists a block of rows at a time, not all at once
            for first in range(0, len(self), 4096):
                block = self._rows[first : first + 4096]
                r, c = np.nonzero(block)
                pairs = list(zip(u[c].tolist(), block[r, c].tolist()))
                ends = np.cumsum(np.count_nonzero(block, axis=1)).tolist()
                members += [MultiIndex(pairs[lo:hi]) for lo, hi in zip([0, *ends], ends)]
            self._members = tuple(members)
        return self._members

    def member_strings(self) -> list[str]:
        """`str` of each member, in canonical order, formatted from the rows
        in one pass: a token ` j:e` per nonzero entry, joined per row."""
        r, c = np.nonzero(self._rows)
        if self._square_free:
            tokens = [f" {j}:1" for j in self._universe]
            entries = [tokens[x] for x in c.tolist()]
        else:
            u = np.array(self._universe, dtype=np.int64)
            entries = [f" {j}:{e}" for j, e in zip(u[c].tolist(), self._rows[r, c].tolist())]
        ends = np.cumsum(np.count_nonzero(self._rows, axis=1)).tolist()
        return ["mi" + "".join(entries[lo:hi]) for lo, hi in zip([0, *ends], ends)]

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[MultiIndex]:
        return iter(self.members)

    def __contains__(self, mi: MultiIndex) -> bool:
        return mi in self.as_set()

    def __eq__(self, other) -> bool:
        return (isinstance(other, IndexSet) and self._universe == other._universe
                and np.array_equal(self._rows, other._rows))

    def __hash__(self) -> int:
        return hash(self.members)

    def __repr__(self) -> str:
        return f"IndexSet({len(self)} members, max_index={self.max_index()})"

    def as_set(self) -> frozenset[MultiIndex]:
        if self._set is None:
            self._set = frozenset(self.members)
        return self._set

    def universe(self) -> tuple[int, ...]:
        """Sorted union of member supports."""
        return self._universe

    def max_index(self) -> int:
        u = self._universe
        return u[-1] if u else 0

    def is_square_free(self) -> bool:
        return self._square_free

    def exponent_matrix(self, universe: Sequence[int] | None = None) -> np.ndarray:
        """Members as rows of exponents over the set's universe (the cached
        matrix) or over one containing it."""
        if universe is None or tuple(universe) == self._universe:
            return self._rows
        pos = {j: i for i, j in enumerate(universe)}
        out = np.zeros((len(self), len(universe)), dtype=np.int16)
        out[:, [pos[j] for j in self._universe]] = self._rows
        return out

    def masks(self) -> np.ndarray:
        """Members as bitmask words over the universe; square-free sets only."""
        if self._words is None:
            if not self._square_free:
                raise DomainError("mask words need a square-free set")
            self._words = _mask_words(self._rows)
        return self._words

    def position_masks(self) -> tuple[int, ...]:
        """Members as Python-int masks over positions, bit j - 1 for position
        j, in canonical order; square-free sets only."""
        if self._position_masks is None:
            if not self._square_free:
                raise DomainError("position masks need a square-free set")
            bits = [1 << (j - 1) for j in self._universe]
            out = [0] * len(self)
            for r, c in zip(*map(np.ndarray.tolist, np.nonzero(self._rows))):
                out[r] |= bits[c]
            self._position_masks = tuple(out)
        return self._position_masks


def _first_repeat(order: np.ndarray, same: np.ndarray) -> tuple[int, int]:
    """(r, q) for rows in a stable sort `order`, `same` telling whether each
    sorted row equals the one before: r the first row, in the order given,
    equal to an earlier one, and q the first row equal to it, which heads
    r's run of equal rows."""
    r = int(order[1:][same].min())
    at = int(np.flatnonzero(order == r)[0])
    heads = np.flatnonzero(~same[:at]) + 1
    return r, int(order[heads[-1] if len(heads) else 0])


def _check_exponent(top: int) -> None:
    if top > _EXPONENT_CAP:
        raise DomainError(f"exponent {top} too large for the pair kernel")


def _item_rows(items: Iterable[Sequence[tuple[int, int]]]) -> tuple[list[int], np.ndarray]:
    """(universe, rows) of members given as (position, exponent) pairs: the
    sorted positions and the int16 rows over them, in the order given.  The
    cap is checked first, so an exponent too large for int16 is a DomainError."""
    items = list(items)
    universe = sorted({j for pairs in items for j, _ in pairs})
    pos = {j: i for i, j in enumerate(universe)}
    width = len(universe)
    # flat cells and one numpy assignment: per-call numpy overhead, not the
    # loop, is what a small set's encoding costs
    cells, exponents = [], []
    for r, pairs in enumerate(items):
        for j, e in pairs:
            cells.append(r * width + pos[j])
            exponents.append(e)
    _check_exponent(max(exponents, default=0))
    rows = np.zeros(len(items) * width, dtype=np.int16)
    rows[cells] = exponents
    return universe, rows.reshape(len(items), width)


def _set_bits(x: int) -> list[int]:
    """Indices of the set bits of x >= 0, ascending."""
    out = []
    while x:
        low = x & -x
        out.append(low.bit_length() - 1)
        x ^= low
    return out


def _mask_words(rows: np.ndarray) -> np.ndarray:
    """Bitmasks of the 0/1 rows of an exponent matrix as read-only uint64
    words: column i is bit i % 64 of word i // 64."""
    n, m = rows.shape
    bits = np.zeros((n, max(1, -(-m // 64)) * 64), dtype=bool)
    bits[:, :m] = rows
    out = np.packbits(bits, axis=1, bitorder="little").view("<u8")
    out.flags.writeable = False
    return out


def _power_table(weights: np.ndarray) -> np.ndarray:
    """table[x] = product of weights[i] over the set bits of x, multiplied in
    ascending bit order; each entry with top bit i is the entry without it
    times weights[i], so the table fills in 2^m multiplies."""
    table = np.ones(1 << len(weights), dtype=np.float64)
    for i, w in enumerate(weights):
        np.multiply(table[: 1 << i], w, out=table[1 << i : 2 << i])
    return table


def _slice_tables(weights: np.ndarray, slices: list[tuple[int, int]]) -> list[np.ndarray]:
    """One product table (`_power_table`) per slice (`_slices`) of the weights."""
    return [_power_table(weights[s : s + k]) for s, k in slices]


def _slices(m: int) -> list[tuple[int, int]]:
    """(first column, width) of the product tables over m columns: each mask
    word cut into the fewest slices of at most _TABLE_SLICE_BITS columns, of
    one width but the last; one empty slice for m = 0."""
    out = []
    for word in range(0, m, 64):
        bits = min(64, m - word)
        width = -(-bits // -(-bits // _TABLE_SLICE_BITS))
        out += [(s, min(width, word + bits - s)) for s in range(word, word + bits, width)]
    return out or [(0, 0)]


def _sliced(words: np.ndarray, slices: list[tuple[int, int]]) -> list[np.ndarray]:
    """Per slice (`_slices`), each mask's bits there as an index.  Bits past
    the last column are zero, so a word's last slice needs no mask, and its
    first starts at bit 0."""
    out, m = [], sum(slices[-1])
    for s, w in slices:
        x = words[:, s // 64]
        if s % 64:
            x = x >> np.uint64(s % 64)
        if (s + w) % 64 and s + w < m:
            x = x & np.uint64((1 << w) - 1)
        out.append(x.astype(np.intp))
    return out


def _xor_products(tables: list, left: list, right: list, rows: slice) -> np.ndarray:
    """block[r, c] = product of the weights over the set bits of left[rows][r]
    xor right[c], from one product table per slice (`_slices`) and `_sliced`
    masks: one XOR, one gather and one multiply per slice.  A table holds
    sequential products in column order, so one slice gives np.prod."""
    x = left[0][rows, None] ^ right[0][None, :]
    block = tables[0][x]
    for table, lefts, rights in zip(tables[1:], left[1:], right[1:]):
        np.bitwise_xor(lefts[rows, None], rights[None, :], out=x)
        block *= table[x]
    return block


def _exp_products(logw: np.ndarray, left: np.ndarray, right: np.ndarray, rows: slice) -> np.ndarray:
    """block[r, c] = t^|left[rows][r] - right[c]| for exponent rows over one
    universe, with logw the logs of its weights: the absolute differences as
    int32 and one exp of their dot with logw.  The differences are formed
    for at most _BLOCK_BUDGET entries at a time, a tile of columns each,
    since one row alone can exceed the budget."""
    lefts = left[rows, None, :].astype(np.int32)
    n, m = right.shape
    block = np.empty((len(lefts), n))
    step = max(1, _BLOCK_BUDGET // max(len(lefts) * m, 1))
    for lo in range(0, n, step):
        diff = np.abs(lefts - right[None, lo : lo + step, :])
        block[:, lo : lo + step] = np.tensordot(diff, logw, axes=([2], [0]))
    return np.exp(block, out=block)


def _fwht(x: np.ndarray) -> None:
    """Unnormalised Walsh-Hadamard transform of a length-2^m array, in place."""
    h = 1
    while h < len(x):
        pairs = x.reshape(-1, 2, h)
        low = pairs[:, 0, :].copy()
        pairs[:, 0, :] += pairs[:, 1, :]
        np.subtract(low, pairs[:, 1, :], out=pairs[:, 1, :])
        h *= 2


def _transform_cheaper(n: int, m: int) -> bool:
    """Cost model: a transform of length 2^m costs about _TRANSFORM_COST * m * 2^m
    gathered pairs; the pair blocks gather n^2."""
    return _TRANSFORM_COST * m * (1 << m) < n * n


class _Transform:
    """The Walsh-Hadamard form of a square-free set's pair matrix.

    With K(x) the product of t_j over the set bits of x, the matrix is the XOR
    convolution M[r, c] = K(mask_r xor mask_c), and the transform of K is
    K^(s) = prod_j (1 + (-1)^(s_j) t_j).  For V the vector v placed at the masks
    and H the unnormalised transform, M v = 2^-m H(K^ . H V) at the masks and
    v . M v = 2^-m sum_s K^(s) (H V)(s)^2, a sum of non-negative terms.
    """

    def __init__(self, t: WeightSequence, B: IndexSet):
        w = t.weights_for(B.universe())
        self.masks = B.masks()[:, 0]
        # prod_j (1 +- t_j) = prod_j (1 + t_j) * prod over set bits of (1 - t_j) / (1 + t_j)
        self.spectrum = _power_table((1.0 - w) / (1.0 + w)) * np.prod(1.0 + w)

    def _transformed(self, v) -> np.ndarray:
        x = np.zeros(len(self.spectrum), dtype=np.float64)
        x[self.masks] = 1.0 if v is None else v
        _fwht(x)
        return x

    def form(self, v=None) -> float:
        """v . M v, v all-ones by default"""
        x = self._transformed(v)
        x *= x
        x *= self.spectrum
        return math.fsum(x) / len(x)

    def apply(self, v=None) -> np.ndarray:
        """M v, v all-ones by default"""
        x = self._transformed(v)
        x *= self.spectrum
        _fwht(x)
        return x[self.masks] / len(x)


class _Divisors:
    """The divisor factorization of the pair matrix of any set (Smith 1876,
    over the divisor lattice).

    For members a, b and every divisor e <= a of a member, let
    T[a, e] = t^(a-e) and c(e) = prod over the support of e of (1 - t_j^2).
    Then M = T diag(c) T^T: per position, t^|a-b| = t^(a+b) t^(-2 min(a,b)), and
    t^(-2f) = sum over e <= f of prod_j (t_j^(-2 e_j) - t_j^(-2 (e_j - 1))) for
    e_j > 0, which is t^(-2e) c(e).  So v . M v = sum_e c(e) (T^T v)(e)^2, a sum
    of non-negative terms when v is, and M v = T (c . T^T v), at a cost of
    O(sum_a prod_j (a_j + 1)) instead of O(N^2 m).  Every entry of T and c lies
    in [0, 1], so exponents up to the matrix's cap of 30 000 cannot overflow.

    With w the largest support of a member, form(1) lies within
    (10 w + 2 N + 1) 2^-53 relative of the exact sum over the double weights:
    an entry of T takes w powers and multiplies, c(e) w factors
    (1 - t_j)(1 + t_j), each column sum at most N terms, and the final sum is
    `math.fsum`.
    """

    def __init__(self, t: WeightSequence, B: IndexSet):
        E = B.exponent_matrix()
        w = t.weights_for(B.universe())
        self.n = n = len(E)
        # member r's s-th position (ascending) and its exponent there; slots
        # past a member's support hold exponent 0, and so one divisor
        members, cols = np.nonzero(E)
        support = np.bincount(members, minlength=n)
        slot = np.arange(len(members)) - (np.cumsum(support) - support)[members]
        col = np.zeros((n, int(support.max())), dtype=np.intp)
        top = np.zeros(col.shape, dtype=np.int64)
        col[members, slot] = cols
        top[members, slot] = E[members, cols]
        # the divisors of member r are the mixed-radix numbers in the radices
        # top[r] + 1: decode each entry's digits slot by slot, last slot first
        counts = np.prod(top + 1, axis=1)
        self.owner = np.repeat(np.arange(n), counts)
        digits = np.arange(len(self.owner)) - np.repeat(np.cumsum(counts) - counts, counts)
        self.value = np.ones(len(self.owner))  # T[owner, divisor]
        scale = np.ones(len(self.owner))  # c(divisor)
        # one column at least: np.lexsort needs a key even when every member
        # is empty (the set {0}), whose one divisor keys as zeros
        keys = np.zeros((len(self.owner), max(col.shape[1], 1)), dtype=np.int64)
        sq = (1.0 - w) * (1.0 + w)  # 1 - t_j^2 without cancellation near t_j = 1
        for s in reversed(range(col.shape[1])):
            radix = top[self.owner, s] + 1
            e = digits % radix
            digits //= radix
            j = col[self.owner, s]
            self.value *= w[j] ** (radix - 1 - e)
            on = e > 0
            scale[on] *= sq[j[on]]
            # exponents stay below 2^15, the matrix's cap of 30 000
            keys[on, s] = (j[on] + 1) << 15 | e[on]
        # a divisor's key is its sorted (position, exponent) pairs, whichever
        # slots of whichever members they came from
        keys.sort(axis=1)
        order = np.lexsort(keys.T)
        ranked = keys[order]
        fresh = np.ones(len(order), dtype=bool)
        fresh[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
        self.label = np.empty(len(order), dtype=np.intp)
        self.label[order] = np.cumsum(fresh) - 1
        self.scale = np.empty(int(fresh.sum()))
        self.scale[self.label] = scale

    def _columns(self, v) -> np.ndarray:
        """T^T v"""
        weights = self.value if v is None else self.value * np.asarray(v, dtype=np.float64)[self.owner]
        return np.bincount(self.label, weights=weights, minlength=len(self.scale))

    def form(self, v=None) -> float:
        """v . M v, v all-ones by default"""
        y = self._columns(v)
        return math.fsum(self.scale * y * y)

    def apply(self, v=None) -> np.ndarray:
        """M v, v all-ones by default"""
        y = self._columns(v)
        y *= self.scale
        return np.bincount(self.owner, weights=self.value * y[self.label], minlength=self.n)


def _smith_scale(w: np.ndarray, E: np.ndarray) -> np.ndarray:
    """c(a) = prod over the support of a of (1 - t_j^2), per row a of E,
    from its nonzeros alone."""
    members, cols = np.nonzero(E)
    out = np.ones(len(E))
    np.multiply.at(out, members, (1.0 - w[cols]) * (1.0 + w[cols]))
    return out


def _divisor_links(E: np.ndarray) -> np.ndarray | None:
    """Per nonzero E[r, j] in row-major order (`np.nonzero`), the row of E
    equal to row r less one at j; None when some such row is missing, as
    the rows are then not closed under divisors, or when the rows are too
    wide to key within `_DIVISOR_WORDS`.  Rows are keyed as one int64 each,
    column j in the bit width of its largest exponent, when the widths fit
    in 63 bits, so that lowering exponent j by one subtracts 2^offset_j; else
    by their bytes, one lowered copy per nonzero."""
    members, cols = np.nonzero(E)
    widths = np.array([int(e).bit_length() for e in E.max(axis=0, initial=0)], dtype=np.int64)
    if widths.sum() <= 63:
        unit = np.left_shift(1, np.cumsum(widths) - widths)
        key = E @ unit
        probe = key[members] - unit[cols]
    elif len(members) * E.shape[1] <= 4 * _DIVISOR_WORDS:  # int16 entries
        lowered = E[members]
        lowered[np.arange(len(members)), cols] -= 1
        row = np.dtype((np.void, E.itemsize * E.shape[1]))
        key, probe = np.ascontiguousarray(E).view(row)[:, 0], lowered.view(row)[:, 0]
    else:
        return None
    order = np.argsort(key)
    at, found = _search(key[order], probe)
    return order[at] if found.all() else None


class _InverseDivisors:
    """M^-1 of a set closed under divisors, over its (member, divisor) entries.

    The divisors of a member are members, so `_Divisors`'s T is square and
    unit triangular, and M^-1 = T^-T diag(1/c) T^-1.  Per position, T is
    [t^(x - y)] over y <= x, whose inverse has 1 on the diagonal and -t below
    it; so T^-1[a, e] = (-t)^(a - e) when e = a - s for a subset s of a's
    support, and 0 otherwise: sum_a 2^|supp a| entries.  Every term of
    M^-1[a, b] = sum_e T^-1[a, e] T^-1[b, e] / c(e) has the sign
    (-1)^(|a| + |b|), so |T^-T| diag(1/c) |T^-1| is |M^-1| entrywise and the
    apply is as accurate as a product with M^-1 itself.
    """

    def __init__(self, t: WeightSequence, B: IndexSet, links: np.ndarray):
        E = B.exponent_matrix()
        w = t.weights_for(B.universe())
        self.n = n = len(E)
        self.scale = _smith_scale(w, E)
        members, cols = np.nonzero(E)
        support = np.bincount(members, minlength=n)
        start = np.cumsum(support) - support  # each row's first nonzero
        owners, values, labels = [], [], []
        # per support size k, a (members, 2^k) block of entries, doubled a
        # position at a time: the divisors without it, then those with it
        # lowered by one.  Last position first, so that a divisor still
        # holds a's earlier positions as its own first nonzeros.
        for k in range(int(support.max(initial=0)) + 1):
            rows = np.flatnonzero(support == k)
            if not len(rows):
                continue
            value, label = np.ones((len(rows), 1)), rows[:, None]
            for s in reversed(range(k)):
                value = np.hstack([value, value * -w[cols[start[rows] + s], None]])
                label = np.hstack([label, links[start[label] + s]])
            owners.append(np.repeat(rows, 1 << k))
            values.append(value.reshape(-1))
            labels.append(label.reshape(-1))
        self.owner = np.concatenate(owners)
        self.value = np.concatenate(values)  # T^-1[owner, label]
        self.label = np.concatenate(labels)

    def apply(self, v: np.ndarray) -> np.ndarray:
        """M^-1 v"""
        y = np.bincount(self.owner, weights=self.value * v[self.label], minlength=self.n)
        y /= self.scale
        return np.bincount(self.label, weights=self.value * y[self.owner], minlength=self.n)


class _InverseLattice:
    """M^-1 of a square-free set closed under divisors, on the subset lattice
    of its m positions.  T^-1 (`_InverseDivisors`) is the weighted subset
    zeta transform with weights -t_j, and T^-T its superset transform.  Over
    the whole lattice the first pass is also nonzero off the set, where the
    second must not read it; the scaling by 1/c zeroes it there."""

    def __init__(self, t: WeightSequence, B: IndexSet):
        w = t.weights_for(B.universe())
        self.masks = B.masks()[:, 0]
        self.negated = -w
        self.scale = _smith_scale(w, B.exponent_matrix())
        self.inverse_scale = np.zeros(1 << len(w))
        self.inverse_scale[self.masks] = 1.0 / self.scale

    def apply(self, v: np.ndarray) -> np.ndarray:
        """M^-1 v"""
        x = np.zeros(len(self.inverse_scale))
        x[self.masks] = v
        _subset_zeta(x, self.negated)
        x *= self.inverse_scale
        _subset_zeta(x, self.negated, superset=True)
        return x[self.masks]


def _inverse(t: WeightSequence, B: IndexSet) -> _InverseDivisors | _InverseLattice | None:
    """B's M^-1 for the lowest eigenvalue, when B is closed under divisors and
    the cost model prefers Lanczos on it, else None.

    The rival is the dense solve below `_DENSE_CAP`, about _EIGVALSH_NS n^3.
    Above the cap it is Lanczos on M, which is never cheaper: one apply of
    M^-1 costs about one of M (at most n(n + 1)/2 entries, since each entry
    pairs two members, or the transform's lattice), and the bottom of M took
    994 steps on the 13-cube where the top of M^-1 takes 30.  The inverse
    costs _INVERSE_NS plus its entries or, for a square-free set on at most
    `_XOR_TABLE_MAX_BITS` positions, its lattice, whichever is cheaper; every
    member has an entry, so a small set is turned down before any pass over
    its rows, and the closure test runs last."""
    n = len(B)
    rival = _EIGVALSH_NS * n ** 3 if n <= _DENSE_CAP else math.inf
    if rival <= _INVERSE_NS + _INVERSE_ENTRY_NS * n:
        return None
    E = B.exponent_matrix()
    m = E.shape[1]
    # supports past 63 positions would overflow and hold too many entries anyway
    entries = float(np.exp2(np.minimum(np.count_nonzero(E, axis=1), 63)).sum())
    by_entries = _INVERSE_ENTRY_NS * entries if entries * _INVERSE_WORDS <= _DIVISOR_WORDS else math.inf
    by_lattice = math.inf
    if B.is_square_free() and m <= _XOR_TABLE_MAX_BITS:
        by_lattice = _INVERSE_LATTICE_NS * m * 2.0 ** m
    if not _INVERSE_NS + min(by_entries, by_lattice) < rival:
        return None
    links = _divisor_links(E)
    if links is None:
        return None
    return _InverseLattice(t, B) if by_lattice <= by_entries else _InverseDivisors(t, B, links)


def _divisors_cheaper(entries: float, width: int, pairs: int, m: int) -> bool:
    """Cost model of the divisor factorization with `entries` (member, divisor)
    entries and members on at most `width` positions, against `pairs`
    pair-block pairs that cost m each: their positions on exponent rows, their
    slices (`_slices`) on mask words.  Its arrays hold about 2 width + 8
    words per entry while it dedupes the divisors, so they must also fit in
    `_DIVISOR_WORDS`."""
    return _DIVISOR_COST * entries < pairs * m and entries * (2 * width + 8) <= _DIVISOR_WORDS


def _divisors_preferred(pairs: int, m: int, B: IndexSet) -> bool:
    """Whether `_divisors_cheaper` prefers the divisor factorization over the
    members of B, with sum_a prod_j (a_j + 1) entries (in float64) and the
    largest support as width.  Every member has at least one entry, and
    every set but {0} a width of at least 1, so when even those bounds lose,
    the sizes are not computed."""
    if not _divisors_cheaper(len(B), 1, pairs, m):
        return False
    E = B.exponent_matrix()
    entries = float(np.prod(E + 1.0, axis=1).sum())
    return _divisors_cheaper(entries, int(np.count_nonzero(E, axis=1).max()), pairs, m)


def _pair_blocks(
    t: WeightSequence, A: IndexSet, B: IndexSet | None = None
) -> Iterator[tuple[int, int, np.ndarray]]:
    """Yield (lo, hi, block) with block[r - lo, c] = t^|A[r] - B[c]|; B defaults
    to A.  Positions range over the sorted union of the two universes."""
    B = A if B is None else B
    universe = A.universe() if B is A else tuple(sorted({*A.universe(), *B.universe()}))
    n = len(B)
    m = len(universe)
    w = t.weights_for(universe)
    if A.is_square_free() and B.is_square_free():
        # t^(a xor b) is the product of lookups in one table per slice of at
        # most _TABLE_SLICE_BITS positions; past about 2^16 entries a table
        # falls out of cache and two lookups in small tables are cheaper
        words = [S.masks() if S.universe() == universe else _mask_words(S.exponent_matrix(universe))
                 for S in (A, B)]
        slices = _slices(m)
        tables = _slice_tables(w, slices)
        left = _sliced(words[0], slices)
        right = left if B is A else _sliced(words[1], slices)
        # live per pair: the index array and the block, plus one gathered
        # factor when there are several tables; dividing the rows by the table
        # count keeps them within two arrays of _BLOCK_BUDGET
        rows = max(1, _BLOCK_BUDGET // max(n * len(tables), 1))
        for lo in range(0, len(A), rows):
            hi = min(lo + rows, len(A))
            yield lo, hi, _xor_products(tables, left, right, slice(lo, hi))
    else:
        left = A.exponent_matrix(universe)
        right = left if B is A else B.exponent_matrix(universe)
        logw = np.log(w)
        rows = max(1, _BLOCK_BUDGET // max(n * max(m, 1), 1))
        for lo in range(0, len(A), rows):
            hi = min(lo + rows, len(A))
            yield lo, hi, _exp_products(logw, left, right, slice(lo, hi))


class _Pairs:
    """The pair blocks of A against B (B defaults to A) as an operator."""

    def __init__(self, t: WeightSequence, A: IndexSet, B: IndexSet | None = None):
        self.t, self.A, self.B = t, A, B

    def apply(self, v=None) -> np.ndarray:
        """M v, v all-ones by default"""
        out = np.empty(len(self.A), dtype=np.float64)
        for lo, hi, block in _pair_blocks(self.t, self.A, self.B):
            out[lo:hi] = block.sum(axis=1) if v is None else block @ v
        return out

    def form(self, v=None) -> float:
        """v . M v, v all-ones by default (for A and B apart, 1_A . M 1_B)"""
        rows = self.apply(v)
        return math.fsum(rows if v is None else v * rows)


def _operator(t: WeightSequence, B: IndexSet) -> _Transform | _Divisors | _Pairs:
    """B's one pair operator: the transform for a square-free set where its cost
    model prefers it, else the divisor factorization where its cost model
    prefers that over the pair blocks, else the pairs."""
    n, m = len(B), len(B.universe())
    cost = m  # of one exponent-block pair, in positions
    if B.is_square_free():
        if m <= _XOR_TABLE_MAX_BITS and _transform_cheaper(n, m):
            return _Transform(t, B)
        cost = len(_slices(m))  # a mask-word pair costs one gather per slice
    if _divisors_preferred(n * n, cost, B):
        return _Divisors(t, B)
    return _Pairs(t, B)


def gcd_row_sums(t: WeightSequence, B: IndexSet) -> np.ndarray:
    """Per-member row sums sum_b t^|a-b| in canonical member order."""
    return _operator(t, B).apply()


def gcd_sum(t: WeightSequence, B: IndexSet) -> float:
    """S(t, B): the full pair sum including the diagonal; always >= |B|."""
    return _operator(t, B).form()


def cross_sum(t: WeightSequence, A: IndexSet, B: IndexSet) -> float:
    """sum over a in A and b in B of t^|a-b|; cross_sum(t, B, B) == gcd_sum(t, B)."""
    if A == B:
        return gcd_sum(t, A)
    return _Pairs(t, A, B).form()


def gcd_sum_mp(t: WeightSequence, B: IndexSet, dps: int = 50) -> mp.mpf:
    """S(t, B) recomputed termwise at `dps` decimal digits: the rows of
    |a - b| counted, one numpy pass per member row, and one `mp.fsum` of each
    distinct row's power of t times its count, multiplied exactly."""
    E = B.exponent_matrix()
    counts = Counter()
    for row in E:
        counts.update(map(bytes, np.abs(E - row)))
    with mp.workdps(dps):
        weights = [t.weight_at_mp(j) for j in B.universe()]
        terms = []
        for key, count in counts.items():
            d = np.frombuffer(key, dtype=E.dtype)
            at = np.flatnonzero(d)
            power = mp.fprod([weights[c] ** e for c, e in zip(at.tolist(), d[at].tolist())])
            terms.append(mp.fmul(power, count, exact=True))
        return mp.fsum(terms)


def gcd_sum_integers(ns: Sequence[int], alpha: float) -> float:
    """sum over pairs of gcd(n_k, n_l)^(2 alpha) / (n_k n_l)^alpha."""
    ns = [int(n) for n in ns]
    if len(set(ns)) != len(ns):
        raise DomainError("integers must be distinct")
    if any(n < 1 for n in ns):
        raise DomainError("integers must be >= 1")
    alpha = float(alpha)
    terms = []
    for i, a in enumerate(ns):
        terms.append(1.0)
        for b in ns[i + 1 :]:
            g = math.gcd(a, b)
            terms.append(2.0 * float(g * g) ** alpha / float(a * b) ** alpha)
    return float(math.fsum(terms))


def _subset_zeta(x: np.ndarray, weights, superset: bool = False) -> None:
    """Weighted zeta transform over the subset lattice of m positions, in place
    on an array of length 2^m indexed by bitmask.

    Afterwards x(c) is the sum over a below c (above c when `superset`) of the
    old x(a) times the product of weights[j] over the positions j of c xor a.
    Unit weights give the zeta transform, weights of -1 its inverse, the
    Moebius transform.  One pass per position (Yates's algorithm): O(m 2^m).
    """
    lo, hi = (1, 0) if superset else (0, 1)
    for i, w in enumerate(weights):
        pairs = x.reshape(-1, 2, 1 << i)
        pairs[:, hi, :] += w * pairs[:, lo, :]


def _lattice_cheaper(n: int, m: int) -> bool:
    """Cost model of the subset-lattice path for n square-free members on m
    positions: a transform over the 2^m subsets, m 2^m steps, against the
    n^2 pairwise joins; its arrays hold 2^m values, so m is capped at
    `_XOR_TABLE_MAX_BITS`."""
    return m <= _XOR_TABLE_MAX_BITS and m * (1 << m) < n * n


def lcm_closure(B: IndexSet) -> IndexSet:
    """All pairwise componentwise maxima of B; contains B, at most n(n+1)/2 members.

    A square-free set whose subset lattice is cheaper than its joins (see
    `_lattice_cheaper`) takes the lattice path: with Z the zeta transform of
    B's indicator, the Moebius transform of Z^2 counts the ordered pairs whose
    join (bitwise OR) is exactly c, so the closure is its support.  Every step
    is int64 arithmetic on counts of at most N^2, so the support is exact.

    Otherwise the joins of each block of rows of the exponent matrix with the
    rows from the block's start onward are formed in numpy and deduplicated as
    keys, per block and then across blocks.  A key packs each column into the
    bit width of its largest exponent (for a square-free set, one bit per
    position: the bitmask) into one int64 when the widths sum to at most 63
    bits; wider rows are keyed by their bytes.  Either way only the distinct
    joins become members, through `IndexSet.from_rows`, which keeps their rows
    as the closure's exponent matrix.
    """
    universe = B.universe()
    m = len(universe)
    if _lattice_cheaper(len(B), m) and B.is_square_free():
        pairs = np.zeros(1 << m, dtype=np.int64)
        pairs[B.masks()[:, 0]] = 1
        _subset_zeta(pairs, [1] * m)
        pairs *= pairs
        _subset_zeta(pairs, [-1] * m)
        closure = np.flatnonzero(pairs).astype(np.int32)  # m <= 22 bits
        return IndexSet.from_rows(universe, closure[:, None] >> np.arange(m, dtype=np.int32) & 1)
    E = B.exponent_matrix()
    n, m = E.shape
    widths = np.array([int(e).bit_length() for e in E.max(axis=0)], dtype=np.int64)
    packed = int(widths.sum()) <= 63
    offsets = np.cumsum(widths) - widths  # each column's lowest bit in a key
    row_bytes = np.dtype((np.void, E.itemsize * m))
    keys = []
    lo = 0
    while lo < n:
        hi = min(n, lo + max(1, _BLOCK_BUDGET // max((n - lo) * m, 1)))
        joined = np.maximum(E[lo:hi, None, :], E[None, lo:, :])
        # fields do not overlap, so the sum of the columns at their offsets is their OR
        key = joined @ (1 << offsets) if packed else joined.reshape(-1, m).view(row_bytes)
        keys.append(_distinct(key.reshape(-1)))
        lo = hi
    keys = _distinct(np.concatenate(keys))
    if packed:
        rows = (keys[:, None] >> offsets) & ((1 << widths) - 1)
    else:
        rows = keys.view(E.dtype).reshape(-1, m)
    return IndexSet.from_rows(universe, rows)


def _distinct(x: np.ndarray) -> np.ndarray:
    """The distinct values of a 1-d array, ascending: a sort and a compare of
    neighbours.  Plain np.unique would import numpy.ma (about 20 ms) on its
    first call in a process."""
    x = np.sort(x)
    keep = np.ones(len(x), dtype=bool)
    keep[1:] = x[1:] != x[:-1]
    return x[keep]


def _row_keys(words: np.ndarray) -> np.ndarray:
    """One comparable key per mask: its word, or the bytes of its words.  A
    single word stays an integer, which sorts about four times faster than
    bytes."""
    if words.shape[-1] == 1:
        return words[..., 0]
    return np.ascontiguousarray(words).view(np.dtype((np.void, 8 * words.shape[-1])))[..., 0]


def _search(ranked: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each key of x, an index into the sorted keys `ranked` and whether
    the key is there, at that index."""
    at = np.minimum(np.searchsorted(ranked, x), len(ranked) - 1)
    return at, ranked[at] == x


class LcmClosure:
    """The lcm closure of any set, with the sums over its pairs (closure
    member c, member a) with a <= c behind the square majorant and the chain
    certificate, and the certificate's witness pairs.

    A square-free set whose closure takes the subset-lattice path
    (`_lattice_cheaper`) sums by weighted zeta transforms over the 2^m
    subsets.  Any other set runs over blocks of closure rows (`_pairs`), with
    one mask a <= c per block; every weight vector's products there come from
    the row-range products of the pair blocks: `_xor_products` on the mask
    words of a square-free set (any number of positions), `_exp_products` on
    the exponent rows of any other.  Every term summed is non-negative.
    """

    def __init__(self, B: IndexSet):
        self.B = B
        self.closure = lcm_closure(B)  # on B's universe: joins add no position
        self.rows = self.closure.exponent_matrix()  # closure exponents
        self.lattice = B.is_square_free() and _lattice_cheaper(len(B), self.rows.shape[1])

    def sum_error_bound(self) -> float:
        """Relative error bound, to first order, of `subset_sums` on a
        square-free set against the exact sums over the same double weights.

        A sum of k non-negative terms that each carry a relative error of at
        most d is within d + (k - 1) u in any order of summation (u = 2^-53).
        On the lattice path a value takes one product and one sum per
        position: 2 m u.  On the pair path a term is a product of at most m
        table weights, (m - 1) u, and a row sums at most N terms.
        """
        m, n = self.rows.shape[1], len(self.B)
        return (2 * m + 2 if self.lattice else m + n + 1) * 2.0 ** -53

    def _pairs(self, rest: np.ndarray | None = None) -> Iterator[tuple[int, int, np.ndarray]]:
        """Yield (lo, hi, below) per block of the closure rows (of those
        indexed by `rest` when given), with below[r, k] whether member k lies
        below row lo + r.  About four pair arrays, each over the mask words
        or exponent columns of a row, are live at once, so a block holds a
        quarter of _BLOCK_BUDGET."""
        square_free = self.B.is_square_free()
        if square_free:
            E, F = self.B.masks(), self.closure.masks()
        else:
            E, F = self.B.exponent_matrix(), self.rows
        if rest is not None:
            F = F[rest]
        n, width = E.shape
        rows = max(1, _BLOCK_BUDGET // (4 * n * width))
        for lo in range(0, len(F), rows):
            hi = min(lo + rows, len(F))
            if square_free:
                # a member lies below c iff it has no bit outside c
                below = ~np.any(E[None, :, :] & ~F[lo:hi, None, :], axis=2)
            else:
                below = np.all(E[None, :, :] <= F[lo:hi, None, :], axis=2)
            yield lo, hi, below

    def subset_sums(self, weights: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """(inner, above) for weight vectors over the universe.

        inner[r, q] is the sum over members a below closure member c_r of the
        product of weights[q] over c_r minus a; above[k] is the sum over
        closure members c above member a_k of the product of weights[-1] over
        c minus a_k.  On the lattice path they are the weighted subset zeta of
        the members' indicator, read at the closure, and the weighted
        superset zeta of the closure's indicator, read at the members;
        otherwise the row and column sums of the masked pair blocks.
        """
        inner = np.empty((len(self.closure), len(weights)), dtype=np.float64)
        m = self.rows.shape[1]
        if self.lattice:
            members, closure = self.B.masks()[:, 0], self.closure.masks()[:, 0]
            for q, w in enumerate(weights):
                g = np.zeros(1 << m, dtype=np.float64)
                g[members] = 1.0
                _subset_zeta(g, w)
                inner[:, q] = g[closure]
            h = np.zeros(1 << m, dtype=np.float64)
            h[closure] = 1.0
            _subset_zeta(h, weights[-1], superset=True)
            return inner, h[members]
        if self.B.is_square_free():
            slices = _slices(m)
            products = _xor_products
            factors = [_slice_tables(w, slices) for w in weights]
            left, right = _sliced(self.closure.masks(), slices), _sliced(self.B.masks(), slices)
        else:
            products = _exp_products
            factors = [np.log(w) for w in weights]
            left, right = self.rows, self.B.exponent_matrix()
        above = np.zeros(len(self.B), dtype=np.float64)
        for lo, hi, below in self._pairs():
            for q, factor in enumerate(factors):
                terms = products(factor, left, right, slice(lo, hi))
                terms *= below
                inner[lo:hi, q] = terms.sum(axis=1)
            above += terms.sum(axis=0)
        return inner, above

    def witnesses(self) -> np.ndarray:
        """Per closure member c, the first pair (k, l) of members in canonical
        order whose join is c; square-free, divisor-closed sets only.

        A complete set is divisor-closed, so a member a_k below c joins some
        member to c iff c minus a_k is a member, and l is then the first
        member with a_k | a_l = c.  The empty member, first in canonical
        order, joins every member c with c itself; only closure members
        outside the set are searched, in the blocks of `_pairs`.  Membership
        is a lookup in a boolean table over the 2^m masks for m <=
        `_XOR_TABLE_MAX_BITS`, and a search of the members' sorted keys
        otherwise, so memory stays bounded in m.
        """
        E, F = self.B.masks(), self.closure.masks()
        if E[0].any():
            raise DomainError("witness pairs need a divisor-closed set")
        keys = _row_keys(E)
        order = np.argsort(keys, kind="stable")
        ranked = keys[order]
        at, found = _search(ranked, _row_keys(F))
        own = np.where(found, order[at], -1)
        m = self.rows.shape[1]
        table = None
        if m <= _XOR_TABLE_MAX_BITS:
            table = np.zeros(1 << m, dtype=bool)
            table[keys] = True
        out = np.zeros((len(own), 2), dtype=np.int64)
        out[:, 1] = own
        rest = np.flatnonzero(own < 0)
        for lo, hi, below in self._pairs(rest):
            target = F[rest[lo:hi]]
            # for a member a below c, c xor a is c minus a
            x = _row_keys(target[:, None, :] ^ E[None, :, :])
            hit = table[x] if table is not None else _search(ranked, x)[1]
            hit &= below
            if not hit.any(axis=1).all():
                raise DomainError("closure member without a generating pair: B is not divisor closed")
            k = hit.argmax(axis=1)
            join = _row_keys(E[k][:, None, :] | E[None, :, :]) == _row_keys(target)[:, None]
            out[rest[lo:hi], 0] = k
            out[rest[lo:hi], 1] = join.argmax(axis=1)
        return out


def lcm_closure_bound(
    t: WeightSequence, B: IndexSet, tol: float = 1e-12
) -> tuple[float, bool, float]:
    """Square majorant of S(t, B) over the lcm closure.

    rhs = sum over c in closure(B) of (sum over members a <= c of t^(c-a))^2,
    the inner sums from `LcmClosure`; returns (rhs, S <= rhs * (1 + tol), S).
    """
    inner = LcmClosure(B).subset_sums([t.weights_for(B.universe())])[0][:, 0]
    rhs = math.fsum(inner * inner)
    s = gcd_sum(t, B)
    return rhs, s <= rhs * (1.0 + tol) + tol, s


class GcdMatrix:
    """Symmetric unit-diagonal matrix with entries t^|a-b| over B's members.

    Up to n = _DENSE_CAP the matrix is stored densely (built lazily) and
    matvec multiplies it; above, matvec applies B's one operator, chosen by
    `_operator`: the transform, the divisor factorization or the pair blocks.
    `min_eigenvalue` reads neither when B is closed under divisors and
    `_inverse` applies M^-1 instead.
    """

    def __init__(self, t: WeightSequence, B: IndexSet):
        self.t = t
        self.B = B
        self._dense: np.ndarray | None = None

    @property
    def n(self) -> int:
        return len(self.B)

    def dense(self) -> np.ndarray:
        if self._dense is None:
            if self.n > _DENSE_CAP:
                raise DomainError(f"dense storage capped at {_DENSE_CAP} (n={self.n})")
            out = np.empty((self.n, self.n), dtype=np.float64)
            for lo, hi, block in _pair_blocks(self.t, self.B):
                out[lo:hi] = block
            self._dense = out
        return self._dense

    @cached_property
    def _operator(self) -> _Transform | _Divisors | _Pairs:
        return _operator(self.t, self.B)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        if self.n <= _DENSE_CAP:
            return self.dense() @ v
        return self._operator.apply(v)


def gcd_matrix(t: WeightSequence, B: IndexSet) -> GcdMatrix:
    return GcdMatrix(t, B)


def _ritz(diagonal: list[float], off: list[float], lowest: bool) -> tuple[float, float]:
    """(theta, s_k): the lowest or highest eigenvalue of the symmetric
    tridiagonal matrix T with this diagonal and sub-diagonal, and the last
    entry of a unit eigenvector for it, in O(k) memory and time per sweep.

    theta is bisected down to adjacent doubles on Sturm counts: the number
    of negative pivots of the LDL^T factorization of T - x I is the number of
    eigenvalues below x.  The vector takes three steps of inverse iteration
    on T - theta I, pivots kept at least 2^-52 |T| in size, from a start
    that overlaps it: with a positive sub-diagonal, the highest eigenvector
    has entries of one sign and the lowest of alternating sign.  Both are as
    accurate as a dense symmetric solve (within a few 2^-52 |T|), without
    its k x k arrays and O(k^3) time.
    """
    k = len(diagonal)
    squares = [0.0, *(b * b for b in off)]
    radius = [abs(p) + abs(q) for p, q in zip([0.0, *off], [*off, 0.0])]
    lo = min(map(float.__sub__, diagonal, radius))  # Gershgorin
    hi = max(map(float.__add__, diagonal, radius))
    pivmin = sys.float_info.min * max(1.0, max(squares))
    floor = sys.float_info.epsilon * max(-lo, hi) or 1.0
    target = 1 if lowest else k  # eigenvalues below the lowest, or below all but the highest
    while lo < (x := 0.5 * (lo + hi)) < hi:
        count, d = 0, 1.0
        for a, b2 in zip(diagonal, squares):
            d = a - x - b2 / d
            if d <= pivmin:
                d = min(d, -pivmin)
                count += 1
        if count >= target:
            hi = x
        else:
            lo = x
    ratios, pivots, d = [], [], 1.0
    for a, b in zip(diagonal, [0.0, *off]):
        ratios.append(b / d)
        d = a - lo - ratios[-1] * b
        if abs(d) < floor:
            d = math.copysign(floor, d)
        pivots.append(d)
    y = [-1.0 if lowest and i % 2 else 1.0 for i in range(k)]
    for _ in range(3):
        for i in range(1, k):  # L z = y
            y[i] -= ratios[i] * y[i - 1]
        y = list(map(float.__truediv__, y, pivots))
        for i in reversed(range(k - 1)):  # L^T y = D^-1 z
            y[i] -= ratios[i + 1] * y[i + 1]
        scale = math.sqrt(math.fsum(v * v for v in y))
        y = [v / scale for v in y]
    return lo, y[-1]


def _lanczos(matvec: Callable[[np.ndarray], np.ndarray], n: int, tol: float,
             max_iterations: int, lowest: bool) -> float:
    """Lowest or highest eigenvalue of a symmetric operator by Lanczos with full
    reorthogonalization, from a seeded Gaussian start.

    A Ritz value theta of the tridiagonal T_k, s its unit eigenvector, lies
    within |beta_k s_k| of an eigenvalue (Parlett, The Symmetric Eigenvalue
    Problem, the Lanczos chapter).  The extreme Ritz pair is taken at steps
    spaced geometrically, from a dense solve of T_k up to k = `_DENSE_RITZ_MAX`
    and from `_ritz` above; the solve stops once that bound is at most
    tol * |theta|, at beta_k = 0, or at k = n, where T_k is the whole matrix,
    and raises ConvergenceError past max_iterations steps.  The basis grows
    with k in blocks of `_BASIS_ROWS` vectors, never copied, and each step is
    reorthogonalized against it block by block.
    """
    # the standard library's generator: importing numpy.random costs about 5 MB
    rng = random.Random(0)
    start = np.array([rng.gauss(0.0, 1.0) for _ in range(n)])
    v, previous = start / np.linalg.norm(start), np.zeros(n)
    blocks = [np.empty((min(n, _BASIS_ROWS), n))]
    blocks[0][0] = v
    alpha, beta = [], [0.0]
    estimate = residual = None
    check = 5
    for k in range(1, min(n, max_iterations) + 1):
        w = matvec(v) - beta[-1] * previous
        alpha.append(float(v @ w))
        w -= alpha[-1] * v
        for b, block in enumerate(blocks):  # the k basis vectors so far
            basis = block[: k - b * _BASIS_ROWS]
            w -= basis.T @ (basis @ w)
        beta.append(float(np.linalg.norm(w)))
        if k in (check, n, max_iterations) or not beta[-1]:
            check = k + max(5, k // 8)
            if k <= _DENSE_RITZ_MAX:
                theta, s = np.linalg.eigh(np.diag(alpha) + np.diag(beta[1:-1], -1))
                i = 0 if lowest else -1
                estimate, last = float(theta[i]), float(s[-1, i])
            else:
                estimate, last = _ritz(alpha, beta[1:-1], lowest)
            residual = abs(beta[-1] * last)
            if residual <= tol * abs(estimate) or k == n:
                return estimate
        previous, v = v, w / beta[-1]
        if k % _BASIS_ROWS == 0:
            blocks.append(np.empty((min(n - k, _BASIS_ROWS), n)))
        blocks[-1][k % _BASIS_ROWS] = v
    raise ConvergenceError(f"Lanczos did not converge in {max_iterations} iterations",
                           estimate=estimate, residual=residual, iterations=max_iterations)


def spectral_norm(M: GcdMatrix, tol: float = 1e-13, max_iterations: int = 100_000) -> float:
    """Largest eigenvalue by `_lanczos`, within tol relative."""
    return _lanczos(M.matvec, M.n, tol, max_iterations, lowest=False)


def min_eigenvalue(M: GcdMatrix, tol: float = 1e-13, max_iterations: int = 100_000) -> float:
    """Smallest eigenvalue, by one of three paths.

    - A set closed under divisors, where `_inverse` prefers it: 1/mu for mu
      the largest eigenvalue of M^-1 by `_lanczos`, within tol relative.
    - Otherwise, up to _DENSE_CAP, a dense symmetric solve, within about
      n eps lambda_max absolute: tol does not reach it.
    - Otherwise `_lanczos` on M for its lowest end, within tol relative.
    """
    inverse = _inverse(M.t, M.B)
    if inverse is not None:
        try:
            return 1.0 / _lanczos(inverse.apply, M.n, tol, max_iterations, lowest=False)
        except ConvergenceError as exc:
            if exc.estimate:  # to first order, an error r in mu is r / mu^2 in 1/mu
                exc.estimate, exc.residual = 1.0 / exc.estimate, exc.residual / exc.estimate ** 2
            raise
    if M.n <= _DENSE_CAP:
        return float(np.linalg.eigvalsh(M.dense())[0])
    return _lanczos(M.matvec, M.n, tol, max_iterations, lowest=True)


def _support_patterns(B: IndexSet) -> tuple[IndexSet, np.ndarray, np.ndarray]:
    """(reps, index, block): B's distinct support patterns as a square-free
    set over B's universe, the index in np.unique's order of each
    representative in canonical order, and the index of each member's
    pattern.  One np.unique over the support rows, not a dict of members."""
    patterns, block = np.unique(B.exponent_matrix() > 0, axis=0, return_inverse=True)
    reps = IndexSet.__new__(IndexSet)
    index = reps._encode(B.universe(), patterns.view(np.uint8))
    return reps, index, block.reshape(-1)


def group_by_support(B: IndexSet) -> list[tuple[MultiIndex, IndexSet]]:
    """Partition B into blocks of equal support, keyed by the square-free indicator."""
    reps, index, block = _support_patterns(B)
    E = B.exponent_matrix()
    return [(rep, IndexSet.from_rows(B.universe(), E[block == k]))
            for rep, k in zip(reps.members, index.tolist())]


def weighted_sf_form(
    u: WeightSequence, reps: IndexSet, sizes: Sequence[int]
) -> float:
    """sum over pairs of sqrt(sizes_k * sizes_l) * u^|rep_k - rep_l|."""
    if len(sizes) != len(reps):
        raise DomainError("one size per representative required")
    sizes = [int(s) for s in sizes]
    if any(s < 1 for s in sizes):
        raise DomainError("sizes must be positive")
    return _operator(u, reps).form(np.sqrt(np.array(sizes, dtype=np.float64)))


def support_grouping_form(u: WeightSequence, B: IndexSet) -> float:
    """Weighted square-free form of B's support blocks: each block's
    square-free indicator weighted by the square root of its size."""
    reps, index, block = _support_patterns(B)
    return weighted_sf_form(u, reps, np.bincount(block)[index])


def support_grouping_ratio(u: WeightSequence, B: IndexSet) -> float:
    """Diagnostic ratio S(u, B) / support_grouping_form(u, B).

    Reported, never asserted: no finite constant is claimed for it.
    """
    return gcd_sum(u, B) / support_grouping_form(u, B)


def cube_sum_closed_form(t: WeightSequence, k: int) -> float:
    """Product form of S over the k-dimensional boolean cube: prod (2 + 2 t_j)."""
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    out = 1.0
    for j in range(1, k + 1):
        out *= 2.0 + 2.0 * t.weight_at(j)
    return out


@dataclass(frozen=True)
class RayleighBounds:
    lower: float  # S/N, the all-ones Rayleigh quotient
    spectral: float
    upper: float  # max row sum


def rayleigh_bounds(t: WeightSequence, B: IndexSet, tol: float = 1e-13) -> RayleighBounds:
    """S/N <= largest eigenvalue <= max row sum, all computed per instance."""
    rows = gcd_row_sums(t, B)
    lam = spectral_norm(gcd_matrix(t, B), tol=tol)
    return RayleighBounds(
        lower=float(math.fsum(rows)) / len(B),
        spectral=lam,
        upper=float(rows.max()),
    )


def index_set_from_integers(ns: Sequence[int]) -> IndexSet:
    """The set of the integers ns as multi-indices, their primes ranked together."""
    return IndexSet.from_rows(*_item_rows(ranked_items(map(factors_in_scope, ns))))
