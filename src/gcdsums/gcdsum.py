"""GCD sums over multi-index sets, their matrices, and spectral quantities.

An `IndexSet` encodes itself once and caches the result: its universe (the
sorted positions its members use), whether it is square-free, its int16
exponent matrix over the universe and, when square-free, its bitmasks as
uint64 words (universe column i is bit i % 64 of word i // 64).  Every kernel
below reads these; `IndexSet.from_rows` turns arrays back into members.

The central quantity is S(t, B) = sum over all ordered pairs (a, b) of B of
t^|a-b|.  The path is chosen from the input alone:
- a square-free set on at most `_XOR_TABLE_MAX_BITS` positions, when the cost
  model `_transform_cheaper` prefers it, takes the Walsh-Hadamard transform:
  its sum, row sums, weighted form and large-matrix matvec cost O(m 2^m)
  instead of O(N^2);
- otherwise the one blocked pair kernel, `_pair_blocks`, evaluates t^|a-b|.
  For square-free sets, on any number of positions, the powers are products
  of lookups in XOR-indexed tables, one per slice of at most
  `_TABLE_SLICE_BITS` positions of a mask word; only sets that are not
  square-free take exponent-matrix blocks.
Cross sums of two different sets and dense matrices always use the pair
kernel.  Sums are combined with compensated summation in a fixed order, so
results are deterministic.

The lcm closure of a square-free set takes the subset lattice when
`_lattice_cheaper` prefers it (zeta and Moebius transforms over the 2^m
subsets of the universe) and pairwise joins keyed as packed integers
otherwise; `ClosureMasks` holds a square-free closure as bitmasks for the
chain certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence

import mpmath as mp
import numpy as np

from .errors import ConvergenceError, DomainError
from .multiindex import MultiIndex, abs_diff, from_integer
from .weights import WeightSequence

_XOR_TABLE_MAX_BITS = 22  # the transform path's largest universe: arrays of 2^m floats
_TABLE_SLICE_BITS = 16  # positions per product table of the pair blocks
# Cost of one transform element against one gathered pair.  On a 2-vCPU x86
# VM (numpy 2.4) the pair blocks gather at about 5.3 ns per pair and the
# transform path costs about 6 ns per element for m >= 14, where its fixed
# per-level numpy overhead no longer counts; for m = 9..12 the measured
# crossover lies between n^2 = 2 m 2^m and 4 m 2^m.
_TRANSFORM_COST = 4
_DENSE_CAP = 4096  # dense storage, dense matvec and dense eigvalsh up to this n
_BLOCK_BUDGET = 4_000_000  # floats per pair block


class IndexSet:
    """A finite set of distinct multi-indices in canonical (sorted) order.

    Encoded once, on first use, and cached: `universe`, `is_square_free`, the
    read-only int16 `exponent_matrix` over the universe (a row per member, in
    canonical order) and, for a square-free set, the read-only uint64 `masks`
    (universe column i is bit i % 64 of word i // 64).  `from_rows` decodes.
    """

    __slots__ = ("_members", "_set", "_universe", "_square_free", "_matrix", "_masks")

    def __init__(self, members: Iterable[MultiIndex]):
        members = list(members)
        sset = set(members)
        if len(sset) != len(members):
            raise DomainError("members must be pairwise distinct")
        if not members:
            raise DomainError("an index set must be nonempty")
        self._members = tuple(sorted(members))
        self._set = frozenset(sset)
        self._universe: tuple[int, ...] | None = None
        self._square_free: bool | None = None
        self._matrix: np.ndarray | None = None
        self._masks: np.ndarray | None = None

    @classmethod
    def from_rows(cls, universe: Sequence[int], rows: np.ndarray) -> "IndexSet":
        """The set of the distinct rows of exponents over the universe, given
        in any order; the rows, in canonical order and without all-zero
        columns, become its exponent matrix."""
        rows = np.asarray(rows)
        top = int(rows.max(initial=0))
        if top > 30_000:
            raise DomainError(f"exponent {top} too large for the pair kernel")
        keep = rows.any(axis=0)
        universe = tuple(j for j, kept in zip(universe, keep.tolist()) if kept)
        rows = rows[:, keep].astype(np.int16)
        # rows become lists a block at a time, not all at once (8 bytes per entry)
        members = [MultiIndex(zip(universe, row))
                   for lo in range(0, len(rows), 4096) for row in rows[lo : lo + 4096].tolist()]
        order = sorted(range(len(members)), key=members.__getitem__)
        out = cls(members[i] for i in order)
        out._universe = universe
        out._square_free = top <= 1
        out._matrix = rows[order]
        out._matrix.flags.writeable = False
        return out

    @property
    def members(self) -> tuple[MultiIndex, ...]:
        return self._members

    def __len__(self) -> int:
        return len(self._members)

    def __iter__(self) -> Iterator[MultiIndex]:
        return iter(self._members)

    def __contains__(self, mi: MultiIndex) -> bool:
        return mi in self._set

    def __eq__(self, other) -> bool:
        return isinstance(other, IndexSet) and self._set == other._set

    def __hash__(self) -> int:
        return hash(self._members)

    def __repr__(self) -> str:
        return f"IndexSet({len(self)} members, max_index={self.max_index()})"

    def as_set(self) -> frozenset[MultiIndex]:
        return self._set

    def universe(self) -> tuple[int, ...]:
        """Sorted union of member supports."""
        if self._universe is None:
            self._universe = tuple(sorted({j for m in self._members for j, _ in m.items}))
        return self._universe

    def max_index(self) -> int:
        u = self.universe()
        return u[-1] if u else 0

    def is_square_free(self) -> bool:
        if self._square_free is None:
            try:
                self.exponent_matrix()  # every caller reads the matrix next
            except DomainError:  # an exponent above the matrix's cap
                self._square_free = False
        return self._square_free

    def exponent_matrix(self, universe: Sequence[int] | None = None) -> np.ndarray:
        """Members as rows of exponents over the set's universe (cached) or
        over one containing it; exponents above 30 000 raise DomainError."""
        if self._matrix is None:
            # flat cells and one numpy assignment: per-call numpy overhead,
            # not the loop, is what a small set's encoding costs
            pos = {j: i for i, j in enumerate(self.universe())}
            width = len(pos)
            cells, exponents = [], []
            for r, m in enumerate(self._members):
                for j, e in m.items:
                    cells.append(r * width + pos[j])
                    exponents.append(e)
            top = max(exponents, default=0)
            self._square_free = top <= 1
            if top > 30_000:
                raise DomainError(f"exponent {top} too large for the pair kernel")
            flat = np.zeros(len(self) * width, dtype=np.int16)
            flat[cells] = exponents
            self._matrix = flat.reshape(len(self), width)
            self._matrix.flags.writeable = False
        if universe is None or tuple(universe) == self.universe():
            return self._matrix
        pos = {j: i for i, j in enumerate(universe)}
        out = np.zeros((len(self), len(universe)), dtype=np.int16)
        out[:, [pos[j] for j in self.universe()]] = self._matrix
        return out

    def masks(self) -> np.ndarray:
        """Members as bitmask words over the universe; square-free sets only."""
        if self._masks is None:
            if not self.is_square_free():
                raise DomainError("mask words need a square-free set")
            self._masks = _mask_words(self.exponent_matrix())
        return self._masks


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
    the last column are zero, so a word's last slice needs no mask and its
    first no shift."""
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
        x[self.masks] = v
        _fwht(x)
        return x

    def form(self, v) -> float:
        """v . M v"""
        x = self._transformed(v)
        x *= x
        x *= self.spectrum
        return math.fsum(x) / len(x)

    def apply(self, v) -> np.ndarray:
        """M v"""
        x = self._transformed(v)
        x *= self.spectrum
        _fwht(x)
        return x[self.masks] / len(x)


def _transform_path(t: WeightSequence, B: IndexSet) -> _Transform | None:
    """The transform path for B, when B is square-free and the cost model prefers it."""
    m = len(B.universe())
    if m <= _XOR_TABLE_MAX_BITS and _transform_cheaper(len(B), m) and B.is_square_free():
        return _Transform(t, B)
    return None


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
        tables = [_power_table(w[s : s + k]) for s, k in slices]
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
            diff = np.abs(left[lo:hi, None, :].astype(np.int32) - right[None, :, :])
            yield lo, hi, np.exp(np.tensordot(diff, logw, axes=([2], [0])))


def _block_row_sums(t: WeightSequence, B: IndexSet) -> np.ndarray:
    out = np.empty(len(B), dtype=np.float64)
    for lo, hi, block in _pair_blocks(t, B):
        out[lo:hi] = block.sum(axis=1)
    return out


def gcd_row_sums(t: WeightSequence, B: IndexSet) -> np.ndarray:
    """Per-member row sums sum_b t^|a-b| in canonical member order."""
    transform = _transform_path(t, B)
    if transform is not None:
        return transform.apply(np.ones(len(B)))
    return _block_row_sums(t, B)


def gcd_sum(t: WeightSequence, B: IndexSet) -> float:
    """S(t, B): the full pair sum including the diagonal; always >= |B|."""
    transform = _transform_path(t, B)
    if transform is not None:
        return transform.form(np.ones(len(B)))
    return float(math.fsum(_block_row_sums(t, B)))


def cross_sum(t: WeightSequence, A: IndexSet, B: IndexSet) -> float:
    """sum over a in A and b in B of t^|a-b|; cross_sum(t, B, B) == gcd_sum(t, B)."""
    if A == B:
        return gcd_sum(t, A)
    return float(math.fsum(r for _, _, block in _pair_blocks(t, A, B) for r in block.sum(axis=1)))


def gcd_sum_mp(t: WeightSequence, B: IndexSet, dps: int = 50) -> mp.mpf:
    """S(t, B) recomputed termwise at `dps` decimal digits."""
    members = B.members
    with mp.workdps(dps):
        cache: dict[MultiIndex, mp.mpf] = {}
        terms = []
        for a in members:
            for b in members:
                d = abs_diff(a, b)
                v = cache.get(d)
                if v is None:
                    v = t.pow_mp(d)
                    cache[d] = v
                terms.append(v)
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
    as the closure's exponent matrix.  Exponents above 30 000, the exponent
    matrix's cap, raise DomainError.
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
    shifts = np.cumsum(widths) - widths
    row_bytes = np.dtype((np.void, E.itemsize * m))
    keys = []
    lo = 0
    while lo < n:
        hi = min(n, lo + max(1, _BLOCK_BUDGET // max((n - lo) * m, 1)))
        joined = np.maximum(E[lo:hi, None, :], E[None, lo:, :])
        # fields do not overlap, so the sum of the shifted columns is their OR
        key = joined @ (1 << shifts) if packed else joined.reshape(-1, m).view(row_bytes)
        keys.append(np.unique(key))
        lo = hi
    keys = np.unique(np.concatenate(keys))
    if packed:
        rows = (keys[:, None] >> shifts) & ((1 << widths) - 1)
    else:
        rows = keys.view(E.dtype).reshape(-1, m)
    return IndexSet.from_rows(universe, rows)


def _row_keys(words: np.ndarray) -> np.ndarray:
    """One comparable key per mask: its word, or the bytes of its words.  A
    single word stays an integer, which np.isin sorts about four times faster
    than bytes."""
    if words.shape[-1] == 1:
        return words[..., 0]
    return np.ascontiguousarray(words).view(np.dtype((np.void, 8 * words.shape[-1])))[..., 0]


class ClosureMasks:
    """The lcm closure of a square-free set, with the members and the closure
    as bitmasks over the set's universe (their cached `IndexSet.masks`, so any
    number of positions), and the per-closure-member quantities of the chain
    certificate computed on them.

    Where the closure takes the subset-lattice path (`_lattice_cheaper`),
    sums are weighted zeta transforms over the 2^m subsets; otherwise they
    run over blocks of (closure member, member) pairs.  Every term summed is
    non-negative.
    """

    def __init__(self, B: IndexSet):
        self._E = B.masks()
        self.closure = lcm_closure(B)  # on B's universe: joins add no position
        self.rows = self.closure.exponent_matrix()  # closure exponents, 0/1
        self._F = self.closure.masks()
        self.lattice = _lattice_cheaper(len(B), self.rows.shape[1])

    def sum_error_bound(self) -> float:
        """Relative error bound, to first order, of `subset_sums` against the
        exact sums over the same double weights.

        A sum of k non-negative terms that each carry a relative error of at
        most d is within d + (k - 1) u in any order of summation (u = 2^-53).
        On the lattice path a value takes one product and one sum per
        position: 2 m u.  On the pair path a term is a product of at most m
        table weights, (m - 1) u, and a row sums at most N terms.
        """
        m, n = self.rows.shape[1], len(self._E)
        return (2 * m + 2 if self.lattice else m + n + 1) * 2.0 ** -53

    def _pairs(self, F: np.ndarray):
        """Yield (lo, hi, below, diff) per block of closure masks F, with
        below[r, k] whether member k is a subset of F[lo + r] and diff[r, k]
        the words of F[lo + r] xor member k: for a subset, the difference.
        About four pair arrays are live at once, so a block holds a quarter
        of _BLOCK_BUDGET pairs."""
        E = self._E
        n, words = E.shape
        rows = max(1, _BLOCK_BUDGET // (4 * n * words))
        for lo in range(0, len(F), rows):
            hi = min(lo + rows, len(F))
            diff = F[lo:hi, None, :] ^ E[None, :, :]
            # a member lies below c iff it shares no bit with c xor itself
            below = ~np.any(diff & E[None, :, :], axis=2)
            yield lo, hi, below, diff

    def subset_sums(self, weights: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """(inner, above) for weight vectors over the universe.

        inner[r, q] is the sum over members a below closure member c_r of the
        product of weights[q] over c_r minus a; above[k] is the sum over
        closure members c above member a_k of the product of weights[-1] over
        c minus a_k.  On the lattice path they are the weighted subset zeta of
        the members' indicator, read at the closure, and the weighted
        superset zeta of the closure's indicator, read at the members;
        otherwise the row and column sums of the pair blocks.
        """
        inner = np.empty((len(self._F), len(weights)), dtype=np.float64)
        m = self.rows.shape[1]
        if self.lattice:
            members, closure = self._E[:, 0], self._F[:, 0]
            for q, w in enumerate(weights):
                g = np.zeros(1 << m, dtype=np.float64)
                g[members] = 1.0
                _subset_zeta(g, w)
                inner[:, q] = g[closure]
            h = np.zeros(1 << m, dtype=np.float64)
            h[closure] = 1.0
            _subset_zeta(h, weights[-1], superset=True)
            return inner, h[members]
        slices = _slices(m)
        tables = [[_power_table(w[s : s + k]) for s, k in slices] for w in weights]
        closure, members = _sliced(self._F, slices), _sliced(self._E, slices)
        above = np.zeros(len(self._E), dtype=np.float64)
        for lo, hi, below, _ in self._pairs(self._F):
            for q, table in enumerate(tables):
                terms = _xor_products(table, closure, members, slice(lo, hi))
                terms *= below
                inner[lo:hi, q] = terms.sum(axis=1)
            above += terms.sum(axis=0)
        return inner, above

    def witnesses(self) -> np.ndarray:
        """Per closure member c, the first pair (k, l) of members in canonical
        order whose join is c.

        A complete set is divisor-closed, so a member a_k below c joins some
        member to c iff c minus a_k is a member, and l is then the first
        member with a_k | a_l = c.  The empty member, first in canonical
        order, joins every member c with c itself; only closure members
        outside the set are searched, in pair blocks.
        """
        E, keys = self._E, _row_keys(self._E)
        if E[0].any():
            raise DomainError("witness pairs need a divisor-closed set")
        index = dict(zip(keys.tolist(), range(len(keys))))
        own = np.array([index.get(c, -1) for c in _row_keys(self._F).tolist()], dtype=np.int64)
        out = np.zeros((len(own), 2), dtype=np.int64)
        out[:, 1] = own
        rest = np.flatnonzero(own < 0)
        for lo, hi, below, diff in self._pairs(self._F[rest]):
            hit = below & np.isin(_row_keys(diff), keys)
            if not hit.any(axis=1).all():
                raise DomainError("closure member without a generating pair: B is not divisor closed")
            k = hit.argmax(axis=1)
            target = self._F[rest[lo:hi]]
            join = np.all((E[k][:, None, :] | E[None, :, :]) == target[:, None, :], axis=2)
            out[rest[lo:hi], 0] = k
            out[rest[lo:hi], 1] = join.argmax(axis=1)
        return out


def lcm_closure_bound(
    t: WeightSequence, B: IndexSet, tol: float = 1e-12
) -> tuple[float, bool]:
    """Square majorant of S(t, B) over the lcm closure.

    rhs = sum over c in closure(B) of (sum over members a <= c of t^(c-a))^2;
    returns (rhs, S <= rhs * (1 + tol)).
    """
    E, logw = B.exponent_matrix(), np.log(t.weights_for(B.universe()))
    # the closure lies on B's universe: joins add no position
    inner = np.array([
        math.fsum(np.exp((row - E[np.all(E <= row, axis=1)]).astype(np.float64) @ logw))
        for row in lcm_closure(B).exponent_matrix()
    ])
    rhs = float(math.fsum(inner * inner))
    s = gcd_sum(t, B)
    return rhs, s <= rhs * (1.0 + tol) + tol


class GcdMatrix:
    """Symmetric unit-diagonal matrix with entries t^|a-b| over B's members.

    Up to n = _DENSE_CAP the matrix is stored densely (built lazily) and
    matvec multiplies it; above, matvec takes the transform path when the cost
    model prefers it, and otherwise streams recomputed pair blocks.
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
    def _transform(self) -> _Transform | None:
        return _transform_path(self.t, self.B)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        if self.n <= _DENSE_CAP:
            return self.dense() @ v
        if self._transform is not None:
            return self._transform.apply(v)
        out = np.empty(self.n, dtype=np.float64)
        for lo, hi, block in _pair_blocks(self.t, self.B):
            out[lo:hi] = block @ v
        return out


def gcd_matrix(t: WeightSequence, B: IndexSet) -> GcdMatrix:
    return GcdMatrix(t, B)


def _power_iteration(
    matvec: Callable[[np.ndarray], np.ndarray],
    n: int,
    tol: float,
    max_iterations: int,
) -> float:
    # all-ones start: a positive matrix guarantees overlap with the
    # dominant eigenvector
    v = np.full(n, 1.0 / math.sqrt(n))
    lam_prev = None
    for it in range(1, max_iterations + 1):
        y = matvec(v)
        lam = float(v @ y)
        norm = float(np.linalg.norm(y))
        if norm == 0.0:
            raise ConvergenceError("matvec collapsed to zero", estimate=lam, iterations=it)
        v = y / norm
        if lam_prev is not None and abs(lam - lam_prev) <= tol * max(abs(lam), 1e-300):
            return lam
        lam_prev = lam
    residual = float(np.linalg.norm(matvec(v) - lam_prev * v))
    raise ConvergenceError(
        f"power iteration did not converge in {max_iterations} iterations",
        estimate=lam_prev,
        residual=residual,
        iterations=max_iterations,
    )


def spectral_norm(M: GcdMatrix, tol: float = 1e-13, max_iterations: int = 100_000) -> float:
    """Largest eigenvalue via power iteration from the all-ones vector."""
    return _power_iteration(M.matvec, M.n, tol, max_iterations)


def min_eigenvalue(M: GcdMatrix, tol: float = 1e-13, max_iterations: int = 100_000) -> float:
    """Smallest eigenvalue: dense symmetric solve up to _DENSE_CAP, else shifted iteration."""
    if M.n <= _DENSE_CAP:
        return float(np.linalg.eigvalsh(M.dense())[0])
    shift = spectral_norm(M, tol=tol, max_iterations=max_iterations) * (1.0 + 1e-12)
    mu = _power_iteration(
        lambda v: shift * v - M.matvec(v), M.n, tol, max_iterations
    )
    return shift - mu


def group_by_support(B: IndexSet) -> list[tuple[MultiIndex, IndexSet]]:
    """Partition B into blocks of equal support, keyed by the square-free indicator."""
    groups: dict[frozenset[int], list[MultiIndex]] = {}
    for m in B:
        groups.setdefault(m.support(), []).append(m)
    out = []
    for supp, block in groups.items():
        rep = MultiIndex({j: 1 for j in supp})
        out.append((rep, IndexSet(block)))
    out.sort(key=lambda pair: pair[0])
    return out


def weighted_sf_form(
    u: WeightSequence, reps: IndexSet, sizes: Sequence[int]
) -> float:
    """sum over pairs of sqrt(sizes_k * sizes_l) * u^|rep_k - rep_l|."""
    if len(sizes) != len(reps):
        raise DomainError("one size per representative required")
    sizes = [int(s) for s in sizes]
    if any(s < 1 for s in sizes):
        raise DomainError("sizes must be positive")
    roots = np.sqrt(np.array(sizes, dtype=np.float64))
    transform = _transform_path(u, reps)
    if transform is not None:
        return transform.form(roots)
    terms = np.empty(len(reps), dtype=np.float64)
    for lo, hi, block in _pair_blocks(u, reps):
        terms[lo:hi] = roots[lo:hi] * (block @ roots)
    return float(math.fsum(terms))


def support_grouping_form(u: WeightSequence, B: IndexSet) -> float:
    """Weighted square-free form of B's support blocks: each block's
    square-free indicator weighted by the square root of its size."""
    groups = group_by_support(B)
    reps = IndexSet([rep for rep, _ in groups])
    order = {rep: len(block) for rep, block in groups}
    sizes = [order[rep] for rep in reps.members]
    return weighted_sf_form(u, reps, sizes)


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
    return IndexSet([from_integer(n) for n in ns])
