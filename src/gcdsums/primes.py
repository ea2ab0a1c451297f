"""Prime ranks and integer factorization.

A `PrimeTable` holds a fixed int32 prefix, the primes up to 2^17, and
answers every question above it from shipped counts: the data file
`prime_counts.npy` holds the number of primes in every interval of `_MARK`
odd numbers below 2^31 (16 384 uint16 entries, 32 KB), so the rank of a
prime, or the prime of a rank, is the count at its interval's start plus one
sieved window of at most `_MARK` odd numbers.  `scripts/prime_counts.py`
writes the file and checks it.  The prefix and the windows run one
cache-blocked wheel sieve, `_odd_blocks`.  Integers factor by trial
division, Miller-Rabin and Pollard-Brent."""

from __future__ import annotations

import math
from functools import cache
from importlib import resources
from itertools import groupby
from typing import Iterable, Iterator

import numpy as np

from .errors import DomainError, PrimeRangeError

_DEFAULT_CEILING = 10 ** 9
_WHEEL = (3, 5, 7, 11, 13)
# Odd numbers per sieve block: 2^20 one-byte flags stay in a 2 MB L2 cache.
# On a 2-vCPU x86 VM (numpy 2.4) sieving to 10^8 took 0.43 s with blocks of
# 2^17, where per-prime slicing dominates, 0.22 s with 2^20 and 0.29 s with
# 2^22, which spill out of L2.
_BLOCK = 1 << 20
# Odd numbers per entry of prime_counts.npy, which fixes it: entry k counts
# the primes in (2^17 k, 2^17 (k + 1)], and a rank above the prefix sieves at
# most this many odd numbers.
_MARK = 1 << 16
# The prefix: interval 0 of the counts, the primes up to 2 _MARK = 2^17.
_PREFIX = 2 * _MARK


@cache
def _marks() -> np.ndarray:
    """marks[k], the number of primes below the odd number 2 k _MARK + 1, for
    0 <= k <= 16 384 (2^31 = 2 * 16 384 _MARK): the cumulative sums of the
    shipped counts, as read-only int64."""
    with resources.files(__package__).joinpath("prime_counts.npy").open("rb") as f:
        counts = np.load(f, allow_pickle=False)
    marks = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=marks[1:])
    marks.flags.writeable = False
    return marks


def _wheel_pattern() -> np.ndarray:
    """flags[i] for the odd number 2i + 1 over one period of 3*5*7*11*13
    odd numbers: True iff it has no factor in _WHEEL."""
    period = math.prod(_WHEEL)
    flags = np.ones(period, dtype=bool)
    for p in _WHEEL:
        flags[p // 2 :: p] = False  # 2i + 1 = p (2k + 1) at i = p // 2 + p k
    return flags


_PATTERN = _wheel_pattern()


def _count_bound(lo: int, hi: int) -> int:
    """An upper bound on the number of primes in [lo, hi], lo >= 2: at most
    one per odd number and 2, and pi(hi) - pi(lo - 1) with
    pi(x) < 1.25506 x / ln x for x > 1 and pi(x) > x / ln x for x >= 17
    (Rosser and Schoenfeld 1962)."""
    odd = (hi - lo) // 2 + 2
    upper = 1.25506 * hi / math.log(hi)
    lower = (lo - 1) / math.log(lo - 1) if lo - 1 >= 17 else 0.0
    return min(odd, int(upper - lower) + 2)


def _odd_blocks(first: int, last: int,
                primes: np.ndarray | None = None) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (lo, flags) per block of at most _BLOCK odd numbers 2i + 1 with
    first <= i <= last (first <= last), in order: flags[k] is whether
    2 (lo + k) + 1 is prime.  Every block is a view of one buffer, read
    before the next is asked for.

    Each block starts as the wheel pattern repeated (no multiple of 3, 5, 7,
    11 or 13), and every base prime from 17 to isqrt(2 last + 1) strikes its
    odd multiples from its square on, its next multiple carried from block to
    block.  The base primes come from `primes`, ascending and holding every
    prime up to isqrt(2 last + 1), or else from a fresh sieve."""
    root = math.isqrt(2 * last + 1)
    if primes is None:
        base = sieve_range(17, root).astype(np.int64)
    else:  # int32 needles, as in `PrimeTable.ranks`
        lo, hi = primes.searchsorted(np.int32(17)), primes.searchsorted(np.int32(root), "right")
        base = primes[lo:hi].astype(np.int64)
    # each base prime's next odd multiple to strike, as an index: from its
    # square or the first in range on
    start = np.maximum(base * base, -(-(2 * first + 1) // base) * base)
    nxt = (start + base * (start % 2 == 0)) // 2
    size = min(_BLOCK, last - first + 1)
    flags = np.empty(size, dtype=bool)
    for lo_i in range(first, last + 1, size):
        n = min(size, last + 1 - lo_i)
        hi_i = lo_i + n
        block = flags[:n]
        # the wheel pattern, period by period, from odd number lo_i on
        at, offset = 0, lo_i % len(_PATTERN)
        while at < n:
            piece = _PATTERN[offset : offset + n - at]
            block[at : at + len(piece)] = piece
            at, offset = at + len(piece), 0
        if lo_i < 7:  # the pattern strikes 3, ..., 13 and keeps 1
            for i in range(lo_i, min(7, hi_i)):
                block[i - lo_i] = 2 * i + 1 in _WHEEL
        # the base primes whose square lies in or below this block
        live = int(np.searchsorted(base, math.isqrt(2 * hi_i - 1), side="right"))
        for p, j in zip(base[:live].tolist(), nxt[:live].tolist()):
            block[j - lo_i :: p] = False
        # each next multiple moves to the first at or past hi_i
        nxt[:live] += (hi_i - nxt[:live] + base[:live] - 1) // base[:live] * base[:live]
        yield lo_i, block


def sieve_range(lo: int, hi: int) -> np.ndarray:
    """All primes p with lo <= p <= hi, ascending, as int32: the table's
    ceiling lies below 2^31, and half-width storage halves the prefix's
    memory.  Empty when hi < lo.  One preallocated array, read off the blocks
    of `_odd_blocks`."""
    lo, hi = max(int(lo), 2), int(hi)
    if hi < lo:
        return np.zeros(0, dtype=np.int32)
    if hi >= 1 << 31:
        raise DomainError(f"primes above 2^31 do not fit int32 storage (hi = {hi})")
    out = np.empty(_count_bound(lo, hi), dtype=np.int32)
    end = 0
    if lo == 2:
        out[0] = 2
        end = 1
    first, last = lo // 2, (hi - 1) // 2  # odd numbers 2i + 1 with lo <= 2i + 1 <= hi
    if first > last:
        return out[:end]
    for lo_i, block in _odd_blocks(first, last):
        found = np.flatnonzero(block)
        out[end : end + len(found)] = 2 * (found + lo_i) + 1
        end += len(found)
    return out[:end]


def sieve_upto(limit: int) -> np.ndarray:
    """All primes <= limit, ascending, as int32."""
    return sieve_range(2, limit)


class PrimeTable:
    """The ascending primes p_1 = 2, p_2 = 3, ... up to a ceiling, and their
    ranks.

    A fixed int32 prefix holds the primes up to min(2^17, ceiling), interval
    0 of the shipped counts (12 251 primes at the default ceiling); ranks and
    primes there are reads.  Above it every question, prime to rank
    (`ranks`, `index_of`) or rank to prime (`prime`, `primes`), sieves one
    window per interval of _MARK odd numbers that it touches, from the
    interval's mark: the count of primes below its first odd number
    2 k _MARK + 1, read off the counts.  The windows take their base primes
    from the prefix, which reaches past isqrt(2^31) = 46 340 whenever a
    window can be asked for.  `ranks` and `prime` keep what they find in a
    map between rank and prime, so asking again is a lookup; `primes` reads
    that map and keeps nothing, so a batch over a long run of ranks costs no
    memory per rank.
    """

    def __init__(self, *, ceiling: int = _DEFAULT_CEILING):
        if not 0 < int(ceiling) < 1 << 31:
            raise DomainError(f"ceiling must lie in [1, 2^31) for int32 storage, got {ceiling}")
        self._ceiling = int(ceiling)
        self._limit = min(_PREFIX, self._ceiling)
        self._primes = sieve_upto(self._limit)
        self._primes.flags.writeable = False
        self._rank: dict[int, int] = {}  # prime -> rank, for the primes found by windows
        self._prime: dict[int, int] = {}  # rank -> prime, the same pairs
        self._windows = 0

    def __len__(self) -> int:
        """The number of primes in the prefix."""
        return int(self._primes.size)

    @property
    def limit(self) -> int:
        """The prefix holds every prime up to this bound, min(2^17, ceiling)."""
        return self._limit

    @property
    def ceiling(self) -> int:
        """Largest prime the table may ever hold."""
        return self._ceiling

    @property
    def windows_sieved(self) -> int:
        """How many windows above the prefix the table has sieved."""
        return self._windows

    def prime(self, j: int) -> int:
        """The j-th prime, 1-based (prime(1) == 2)."""
        if 1 <= j <= len(self):
            return int(self._primes[j - 1])
        p = self._prime.get(j)
        if p is None:
            p = int(self.primes([j])[0])
            self._keep(p, int(j))
        return p

    def primes(self, ranks) -> np.ndarray:
        """The primes of the 1-based `ranks`, in order, as int64.

        DomainError for a rank below 1, PrimeRangeError for one past the
        ceiling.  Ranks in the prefix are one gather.  The others are grouped
        by the interval of the counts they fall in, and read from the map
        when all of a group is there, else from one window of the interval;
        nothing is kept."""
        js = np.asarray(ranks, dtype=np.int64)
        if not js.size:
            return np.zeros(0, dtype=np.int64)
        if js.min() < 1:
            raise DomainError(f"prime index must be >= 1, got {int(js.min())}")
        if js.max() <= len(self):
            return self._primes[js - 1].astype(np.int64)
        marks = _marks()
        # ks[i] = k with marks[k] < js[i] <= marks[k + 1]; 16 384 past pi(2^31)
        ks = (np.searchsorted(marks, js) - 1).astype(np.int16)
        order = np.argsort(ks, kind="stable")
        counts = np.bincount(ks)
        stops = np.cumsum(counts)
        out = np.empty(len(js), dtype=np.int64)
        for k in np.flatnonzero(counts).tolist():
            at = order[stops[k] - counts[k] : stops[k]]
            group = js[at]
            if k == 0:  # the prefix, capped by a ceiling below 2^17
                primes, offsets = self._primes, group - 1
            else:
                known = [self._prime.get(j) for j in group.tolist()]
                if None not in known:
                    out[at] = known
                    continue
                first = k * _MARK
                last = min(first + _MARK, (self._ceiling + 1) // 2) - 1
                flags = self._window(k, last) if first <= last else np.zeros(0, dtype=bool)
                primes = 2 * (np.flatnonzero(flags) + first) + 1
                offsets = group - (marks[k] + 1)
            if offsets.max() >= len(primes):
                raise PrimeRangeError(f"prime table ceiling {self._ceiling} exceeded "
                                      f"(requested rank {int(group.max())})")
            out[at] = primes[offsets]
        return out

    def index_of(self, p: int) -> int:
        """1-based rank of the prime p; DomainError if p is not prime."""
        return self.ranks([p])[0]

    def ranks(self, ps: Iterable[int]) -> list[int]:
        """The 1-based rank of each of the primes ps, in order.

        PrimeRangeError if one lies above the ceiling, else DomainError if
        one is not prime.  A rank up to `limit` is read off the prefix; the
        others are ranked together from the shipped counts (`_count`) and
        kept, so a later rank of the same prime is a lookup."""
        ps = [int(p) for p in ps]
        for p in ps:
            if p > self._ceiling:
                raise PrimeRangeError(
                    f"prime table ceiling {self._ceiling} exceeded (requested {p})"
                )
        pending = sorted({p for p in ps if p > self._limit and p % 2 and p not in self._rank})
        if pending:
            self._count(pending)
        out = []
        for p in ps:
            rank = None
            if p > self._limit:
                rank = self._rank.get(p)
            elif p >= 2:
                # an int32 needle: a Python int would make searchsorted cast
                # the whole prefix to int64 on every call (p < 2^31 here)
                i = int(self._primes.searchsorted(np.int32(p)))
                if i < len(self) and int(self._primes[i]) == p:
                    rank = i + 1
            if rank is None:
                raise DomainError(f"{p} is not prime")
            out.append(rank)
        return out

    def _keep(self, p: int, rank: int) -> None:
        self._rank[p] = rank
        self._prime[rank] = p

    def _count(self, pending: list[int]) -> None:
        """Rank those of the odd numbers `pending` (ascending, above the
        prefix, none ranked yet) that are prime: one window per interval of
        _MARK odd numbers they fall in, from its mark up to the largest of
        them there."""
        marks = _marks()
        for k, group in groupby((p // 2 for p in pending), key=lambda i: i // _MARK):
            group = list(group)  # odd numbers 2i + 1, ascending
            start = k * _MARK
            flags = self._window(k, group[-1])
            count, at = int(marks[k]), 0
            for i in (i - start for i in group):
                count += int(np.count_nonzero(flags[at : i + 1]))
                at = i + 1
                if flags[i]:
                    self._keep(2 * (start + i) + 1, count)

    def _window(self, k: int, last: int) -> np.ndarray:
        """Whether 2i + 1 is prime, for k _MARK <= i <= last (k >= 1):
        interval k of the counts, sieved with base primes from the prefix."""
        self._windows += 1
        first = k * _MARK
        flags = np.empty(last + 1 - first, dtype=bool)
        for lo, block in _odd_blocks(first, last, self._primes):
            flags[lo - first : lo - first + len(block)] = block
        return flags


DEFAULT_TABLE = PrimeTable()

_TRIAL_PRIMES = tuple(sieve_upto(1000).tolist())
# The first thirteen primes as Miller-Rabin bases decide primality exactly
# below 3 317 044 064 679 887 385 961 981, the least strong pseudoprime to
# all of them (Sorenson and Webster 2017); the first twelve alone first fail
# at 318 665 857 834 031 151 167 461.
_MR_BASES = _TRIAL_PRIMES[:13]


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on the first thirteen prime bases.

    Exact below 3.3e24; above it a True means a strong probable prime to
    every base."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int) -> int:
    """A nontrivial factor of the composite n, which has no prime factor
    below 1000: Brent's cycle-finding variant of Pollard's rho
    (Brent 1980), with the gcds batched over 128 steps.  The start point and
    polynomial constants are fixed, so the factor found is reproducible."""
    for c in range(1, n):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            # the batch overshot: replay it one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"no factor of {n} found")


def factorize(n: int) -> dict[int, int]:
    """Prime -> exponent for n >= 1: trial division by the primes below 1000,
    then Miller-Rabin and Pollard-Brent on what is left."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    out: dict[int, int] = {}
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out[p] = e
    pending = [n] if n > 1 else []
    while pending:
        m = pending.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            d = _pollard_brent(m)
            pending += (d, m // d)
    return out
