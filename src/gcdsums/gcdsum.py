"""GCD sums over multi-index sets, their matrices, and spectral quantities.

The central quantity is S(t, B) = sum over all ordered pairs (a, b) of B of
t^|a-b|.  The path is chosen from the input alone:
- a square-free set on at most `_XOR_TABLE_MAX_BITS` positions, when the cost
  model `_transform_cheaper` prefers it, takes the Walsh-Hadamard transform:
  its sum, row sums, weighted form and large-matrix matvec cost O(m 2^m)
  instead of O(N^2);
- otherwise the one blocked pair kernel, `_pair_blocks`, evaluates t^|a-b|.
  For square-free sets on at most `_MASK_MAX_BITS` positions the powers are
  products of lookups in XOR-indexed tables, one per slice of at most
  `_TABLE_SLICE_BITS` positions; all other sets take exponent-matrix blocks.
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
_MASK_MAX_BITS = 62  # square-free sets on more positions take exponent blocks
# Cost of one transform element against one gathered pair.  On a 2-vCPU x86
# VM (numpy 2.4) the pair blocks gather at about 5.3 ns per pair and the
# transform path costs about 6 ns per element for m >= 14, where its fixed
# per-level numpy overhead no longer counts; for m = 9..12 the measured
# crossover lies between n^2 = 2 m 2^m and 4 m 2^m.
_TRANSFORM_COST = 4
_DENSE_CAP = 4096  # dense storage, dense matvec and dense eigvalsh up to this n
_BLOCK_BUDGET = 4_000_000  # floats per pair block


class IndexSet:
    """A finite set of distinct multi-indices in canonical (sorted) order."""

    __slots__ = ("_members", "_set", "_universe")

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
            u: set[int] = set()
            for m in self._members:
                u.update(m.support())
            self._universe = tuple(sorted(u))
        return self._universe

    def max_index(self) -> int:
        u = self.universe()
        return u[-1] if u else 0

    def is_square_free(self) -> bool:
        return all(m.is_square_free() for m in self._members)

    def exponent_matrix(self, universe: Sequence[int] | None = None) -> np.ndarray:
        """Members as rows of exponents over the given position universe."""
        if universe is None:
            universe = self.universe()
        pos = {j: i for i, j in enumerate(universe)}
        out = np.zeros((len(self), len(universe)), dtype=np.int16)
        for r, m in enumerate(self._members):
            for j, e in m.items:
                if e > 30_000:
                    raise DomainError(f"exponent {e} too large for the pair kernel")
                out[r, pos[j]] = e
        return out


def _xor_masks(B: IndexSet, universe: Sequence[int]) -> np.ndarray:
    pos = {j: i for i, j in enumerate(universe)}
    masks = np.zeros(len(B), dtype=np.int64)
    for r, m in enumerate(B.members):
        acc = 0
        for j, _ in m.items:
            acc |= 1 << pos[j]
        masks[r] = acc
    return masks


def _power_table(weights: np.ndarray) -> np.ndarray:
    """table[x] = product of weights[i] over the set bits of x."""
    m = len(weights)
    table = np.ones(1 << m, dtype=np.float64)
    for i in range(m):
        table.reshape(-1, 2, 1 << i)[:, 1, :] *= weights[i]
    return table


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
        universe = B.universe()
        w = t.weights_for(universe)
        self.masks = _xor_masks(B, universe)
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
    if m <= _MASK_MAX_BITS and A.is_square_free() and (B is A or B.is_square_free()):
        left = _xor_masks(A, universe)
        right = left if B is A else _xor_masks(B, universe)
        # t^(a xor b) is the product of lookups in one table per slice of at
        # most _TABLE_SLICE_BITS positions; past about 2^16 entries a table
        # falls out of cache and two lookups in small tables are cheaper
        count = max(1, -(-m // _TABLE_SLICE_BITS))
        width = -(-m // count)
        low = (1 << width) - 1
        slices = [(_power_table(w), left, right)] if count == 1 else [
            (_power_table(w[s : s + width]), left >> s & low, right >> s & low)
            for s in range(0, m, width)
        ]
        # live per pair: the index array and the block, plus one gathered
        # factor when there are several tables; dividing the rows by the table
        # count keeps them within two arrays of _BLOCK_BUDGET
        rows = max(1, _BLOCK_BUDGET // max(n * len(slices), 1))
        for lo in range(0, len(A), rows):
            hi = min(lo + rows, len(A))
            table, lefts, rights = slices[0]
            # x stays alive across the yield, so the next block reuses its memory
            x = lefts[lo:hi, None] ^ rights[None, :]
            block = table[x]
            for table, lefts, rights in slices[1:]:
                np.bitwise_xor(lefts[lo:hi, None], rights[None, :], out=x)
                block *= table[x]
            yield lo, hi, block
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
    joins become MultiIndex members.  Exponents above 30 000, the exponent
    matrix's cap, raise DomainError.
    """
    universe = B.universe()
    m = len(universe)
    if _lattice_cheaper(len(B), m) and B.is_square_free():
        pairs = np.zeros(1 << m, dtype=np.int64)
        pairs[_xor_masks(B, universe)] = 1
        _subset_zeta(pairs, [1] * m)
        pairs *= pairs
        _subset_zeta(pairs, [-1] * m)
        return IndexSet(
            MultiIndex({universe[i]: 1 for i in range(m) if c >> i & 1})
            for c in np.flatnonzero(pairs).tolist()
        )
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
    return IndexSet(
        MultiIndex({j: e for j, e in zip(universe, row) if e}) for row in rows.tolist()
    )


def closure_inner_sums(E: np.ndarray, F: np.ndarray, *logws: np.ndarray) -> np.ndarray:
    """out[r, k] = fsum over members a <= F[r] of exp((F[r] - E[a]) . logws[k]),
    for member and closure exponent matrices E, F over one universe."""
    out = np.empty((len(F), len(logws)), dtype=np.float64)
    for r, row in enumerate(F):
        diff = (row[None, :] - E[np.all(E <= row, axis=1)]).astype(np.float64)
        for k, logw in enumerate(logws):
            out[r, k] = math.fsum(np.exp(diff @ logw))
    return out


def _mask_words(rows: np.ndarray) -> np.ndarray:
    """Bitmasks of the 0/1 rows of an exponent matrix as uint64 words:
    column i is bit i % 64 of word i // 64."""
    n, m = rows.shape
    bits = np.zeros((n, max(1, -(-m // 64)) * 64), dtype=bool)
    bits[:, :m] = rows
    return np.packbits(bits, axis=1, bitorder="little").view("<u8")


def _row_keys(words: np.ndarray) -> np.ndarray:
    """One comparable key per mask: its word, or the bytes of its words.  A
    single word stays an integer, which np.isin sorts about four times faster
    than bytes."""
    if words.shape[-1] == 1:
        return words[..., 0]
    return np.ascontiguousarray(words).view(np.dtype((np.void, 8 * words.shape[-1])))[..., 0]


def _word_product(words: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Product of the weights over the set bits of each mask: one lookup per
    slice of _TABLE_SLICE_BITS columns (a divisor of 64, so no slice
    straddles two words).  A table holds sequential products in position
    order, so below 17 positions this equals np.prod over the set bits."""
    out = np.ones(words.shape[:-1], dtype=np.float64)
    for s in range(0, len(weights), _TABLE_SLICE_BITS):
        table = _power_table(weights[s : s + _TABLE_SLICE_BITS])
        out *= table[(words[..., s // 64] >> np.uint64(s % 64)) & np.uint64(len(table) - 1)]
    return out


class ClosureMasks:
    """The lcm closure of a square-free set, with the members and the closure
    as bitmasks over the set's universe (uint64 words, so any number of
    positions), and the per-closure-member quantities of the chain
    certificate computed on them.

    Where the closure takes the subset-lattice path (`_lattice_cheaper`),
    sums are weighted zeta transforms over the 2^m subsets; otherwise they
    run over blocks of (closure member, member) pairs.  Every term summed is
    non-negative.
    """

    def __init__(self, B: IndexSet):
        universe = B.universe()
        E = B.exponent_matrix(universe)
        if E.max(initial=0) > 1:
            raise DomainError("closure masks need a square-free set")
        self.members = B
        self.closure = lcm_closure(B)
        self.rows = self.closure.exponent_matrix(universe)  # closure exponents, 0/1
        self._E = _mask_words(E)
        self._F = _mask_words(self.rows)
        self.lattice = _lattice_cheaper(len(B), len(universe))

    def sum_error_bound(self) -> float:
        """Relative error bound, to first order, of `subset_sums` against the
        exact sums over the same double weights.

        A sum of k non-negative terms that each carry a relative error of at
        most d is within d + (k - 1) u in any order of summation (u = 2^-53).
        On the lattice path a value takes one product and one sum per
        position: 2 m u.  On the pair path a term is a product of at most m
        table weights, (m - 1) u, and a row sums at most N terms.
        """
        m, n = self.rows.shape[1], len(self.members)
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
        if self.lattice:
            m = self.rows.shape[1]
            members, closure = self._E[:, 0].astype(np.int64), self._F[:, 0].astype(np.int64)
            for q, w in enumerate(weights):
                g = np.zeros(1 << m, dtype=np.float64)
                g[members] = 1.0
                _subset_zeta(g, w)
                inner[:, q] = g[closure]
            h = np.zeros(1 << m, dtype=np.float64)
            h[closure] = 1.0
            _subset_zeta(h, weights[-1], superset=True)
            return inner, h[members]
        above = np.zeros(len(self._E), dtype=np.float64)
        for lo, hi, below, diff in self._pairs(self._F):
            for q, w in enumerate(weights):
                terms = _word_product(diff, w)
                terms *= below
                inner[lo:hi, q] = terms.sum(axis=1)
            above += terms.sum(axis=0)
        return inner, above

    def products(self, weights: np.ndarray) -> np.ndarray:
        """Per closure member, the product of the weights over its positions."""
        return _word_product(self._F, weights)

    def counts(self, columns: np.ndarray) -> np.ndarray:
        """Per closure member, how many of its positions the boolean
        `columns` over the universe selects."""
        return np.bitwise_count(self._F & _mask_words(columns[None, :])).sum(axis=1)

    def witnesses(self) -> np.ndarray:
        """Per closure member c, the first pair (k, l) of members in canonical
        order whose join is c.

        A complete set is divisor-closed, so a member a_k below c joins some
        member to c iff c minus a_k is a member, and l is then the first
        member with a_k | a_l = c.  The empty member, first in canonical
        order, joins every member c with c itself; only closure members
        outside the set are searched, in pair blocks.
        """
        if not self.members.members[0].is_zero():
            raise DomainError("witness pairs need a divisor-closed set")
        index = {a: k for k, a in enumerate(self.members.members)}
        own = np.array([index.get(c, -1) for c in self.closure.members], dtype=np.int64)
        out = np.zeros((len(own), 2), dtype=np.int64)
        out[:, 1] = own
        rest = np.flatnonzero(own < 0)
        E, keys = self._E, _row_keys(self._E)
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
    closure = lcm_closure(B)
    universe = closure.universe()
    E, F = B.exponent_matrix(universe), closure.exponent_matrix(universe)
    inner = closure_inner_sums(E, F, np.log(t.weights_for(universe)))[:, 0]
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
