"""Prime ranks and integer factorization.

A `PrimeTable` holds a dense int32 prefix of the ascending primes, grown on
demand by rank, and ranks the primes above it by counting: one pass over the
odd numbers up to the largest prime asked for keeps only the primes asked
for, plus a cumulative count every `_MARK` odd numbers, so that a later rank
inside the counted range sieves one short window.  The prefix, the pass and
the windows all run one cache-blocked wheel sieve, `_odd_blocks`.  Integers
factor by trial division, Miller-Rabin and Pollard-Brent."""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Iterable, Iterator

import numpy as np

from .errors import DomainError, PrimeRangeError

_DEFAULT_INITIAL = 1 << 16
_DEFAULT_CEILING = 10 ** 9
_WHEEL = (3, 5, 7, 11, 13)
# Odd numbers per sieve block: 2^20 one-byte flags stay in a 2 MB L2 cache.
# On a 2-vCPU x86 VM (numpy 2.4) sieving to 10^8 took 0.43 s with blocks of
# 2^17, where per-prime slicing dominates, 0.22 s with 2^20 and 0.29 s with
# 2^22, which spill out of L2.
_BLOCK = 1 << 20
# Odd numbers between the cumulative counts (marks) a counting pass records:
# about 1.5k marks up to 10^8, and a later rank inside the counted range
# sieves at most this many odd numbers.
_MARK = 1 << 16


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


def _odd_blocks(first: int, last: int) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (lo, flags) per block of at most _BLOCK odd numbers 2i + 1 with
    first <= i <= last (first <= last), in order: flags[k] is whether
    2 (lo + k) + 1 is prime.  Every block is a view of one buffer, read
    before the next is asked for.

    Each block starts as the wheel pattern repeated (no multiple of 3, 5, 7,
    11 or 13), and every base prime from 17 to isqrt(2 last + 1) strikes its
    odd multiples from its square on, its next multiple carried from block to
    block."""
    base = sieve_range(17, math.isqrt(2 * last + 1)).astype(np.int64)
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


def _sieve_into(head: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """head followed by the primes p with lo <= p <= hi (lo > head[-1]), in
    one preallocated int32 array, read off the blocks of `_odd_blocks`."""
    lo = max(lo, 2)
    if hi < lo:
        return head
    if hi >= 1 << 31:
        raise DomainError(f"primes above 2^31 do not fit int32 storage (hi = {hi})")
    out = np.empty(len(head) + _count_bound(lo, hi), dtype=np.int32)
    out[: len(head)] = head
    end = len(head)
    if lo == 2:
        out[end] = 2
        end += 1
    first, last = lo // 2, (hi - 1) // 2  # odd numbers 2i + 1 with lo <= 2i + 1 <= hi
    if first > last:
        return out[:end]
    for lo_i, block in _odd_blocks(first, last):
        found = np.flatnonzero(block)
        out[end : end + len(found)] = 2 * (found + lo_i) + 1
        end += len(found)
    return out[:end]


def sieve_range(lo: int, hi: int) -> np.ndarray:
    """All primes p with lo <= p <= hi, ascending, as int32: the table's
    ceiling, 10^9, lies below 2^31, and half-width storage halves the table's
    memory.  Empty when hi < lo."""
    return _sieve_into(np.zeros(0, dtype=np.int32), int(lo), int(hi))


def sieve_upto(limit: int) -> np.ndarray:
    """All primes <= limit, ascending, as int32."""
    return sieve_range(2, limit)


class PrimeTable:
    """The ascending primes p_1 = 2, p_2 = 3, ... and their ranks.

    A dense int32 prefix holds every prime up to `limit`; `prime(j)` and
    `first(count)` grow it by rank, and `ranks` by doubling when a prime asked
    for lies within twice its limit.  `ranks` ranks larger primes by counting
    and keeps only those, in a map between rank and prime that `prime(j)`
    reads before it grows the prefix.  A counting pass runs from the highest
    counted bound to the largest prime asked for and records a mark, the
    count of primes below an odd number, every _MARK odd numbers and at its
    end; a rank below the highest counted bound sieves one window from the
    mark below it.  Marks are exact counts, so a longer prefix leaves them
    valid.
    """

    def __init__(self, initial_limit: int = _DEFAULT_INITIAL, ceiling: int = _DEFAULT_CEILING):
        if not 0 < int(ceiling) < 1 << 31:
            raise DomainError(f"ceiling must lie in [1, 2^31) for int32 storage, got {ceiling}")
        self._ceiling = int(ceiling)
        self._limit = 0
        self._primes = np.zeros(0, dtype=np.int32)
        self._rank: dict[int, int] = {}  # prime -> rank, for the primes ranked by counting
        self._prime: dict[int, int] = {}  # rank -> prime, the same pairs
        # _counts[k] primes lie below the odd number 2 _marks[k] + 1; ascending
        self._marks: list[int] = []
        self._counts: list[int] = []
        self._passes = 0
        self._windows = 0
        self._grow(min(int(initial_limit), self._ceiling))

    def __len__(self) -> int:
        """The number of primes in the dense prefix."""
        return int(self._primes.size)

    @property
    def limit(self) -> int:
        """The dense prefix holds every prime up to this bound."""
        return self._limit

    @property
    def ceiling(self) -> int:
        """Largest prime the table may ever hold."""
        return self._ceiling

    @property
    def counting_passes(self) -> int:
        """How many counting passes `ranks` has run."""
        return self._passes

    @property
    def windows_sieved(self) -> int:
        """How many windows inside the counted range `ranks` has sieved."""
        return self._windows

    @property
    def counted_limit(self) -> int:
        """The largest odd number a counting pass has reached; 0 before the first."""
        return 2 * self._marks[-1] - 1 if self._marks else 0

    def _grow(self, limit: int) -> None:
        if limit <= self._limit:
            return
        if limit > self._ceiling:
            raise PrimeRangeError(
                f"prime table ceiling {self._ceiling} exceeded (requested {limit})"
            )
        # Geometric growth amortizes repeated small extensions.
        target = min(max(limit, 2 * self._limit, _DEFAULT_INITIAL), self._ceiling)
        self._primes = _sieve_into(self._primes, self._limit + 1, target)
        self._primes.flags.writeable = False
        self._limit = target

    def _ensure_count(self, count: int) -> None:
        while len(self) < count:
            if count < 6:
                guess = 16
            else:
                # p_n < n (ln n + ln ln n) for n >= 6
                guess = int(count * (math.log(count) + math.log(math.log(count)))) + 16
            self._grow(max(guess, 2 * self._limit))

    def prime(self, j: int) -> int:
        """The j-th prime, 1-based (prime(1) == 2)."""
        if j < 1:
            raise DomainError(f"prime index must be >= 1, got {j}")
        if j > len(self):
            p = self._prime.get(j)
            if p is not None:
                return p
            self._ensure_count(j)
        return int(self._primes[j - 1])

    def first(self, count: int) -> np.ndarray:
        """The first `count` primes as a read-only int32 view of the prefix."""
        if count < 0:
            raise DomainError("count must be >= 0")
        self._ensure_count(count)
        return self._primes[:count]

    def index_of(self, p: int) -> int:
        """1-based rank of the prime p; DomainError if p is not prime."""
        return self.ranks([p])[0]

    def ranks(self, ps: Iterable[int]) -> list[int]:
        """The 1-based rank of each of the primes ps, in order.

        PrimeRangeError if one lies above the ceiling, else DomainError if
        one is not prime.  A prime within twice `limit` grows the prefix
        first, by doubling as `prime(j)` does: that sieves about as many
        numbers as counting up to it would, and later ranks below the new
        limit are lookups (about a microsecond, where a window costs
        0.1-0.3 ms).  A rank up to `limit` is read off the prefix; the
        others are counted together (`_count`) and kept."""
        ps = [int(p) for p in ps]
        for p in ps:
            if p > self._ceiling:
                raise PrimeRangeError(
                    f"prime table ceiling {self._ceiling} exceeded (requested {p})"
                )
        self._grow(max((p for p in ps if p <= 2 * self._limit), default=0))
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

    def _known(self, i: int) -> tuple[int, int]:
        """(g, count) for the highest g <= i with count, the number of primes
        below the odd number 2g + 1, known: from the prefix or a mark."""
        g, count = (self._limit + 1) // 2, len(self)
        k = bisect_right(self._marks, i) - 1
        if k >= 0 and self._marks[k] > g:
            g, count = self._marks[k], self._counts[k]
        return g, count

    def _keep(self, p: int, rank: int) -> None:
        self._rank[p] = rank
        self._prime[rank] = p

    def _count(self, pending: list[int]) -> None:
        """Rank those of the odd numbers `pending` (ascending, above the
        prefix, none ranked yet) that are prime: each below the highest
        counted bound by a window from the mark below it, the others by one
        counting pass."""
        top = max((self._limit + 1) // 2, self._marks[-1] if self._marks else 0)
        beyond = []
        for p in pending:
            i = p // 2  # p = 2i + 1
            if i >= top:
                beyond.append(i)
                continue
            g, count = self._known(i)
            for _, block in _odd_blocks(g, i):
                count += int(np.count_nonzero(block))
            if block[-1]:  # the last block ends at p
                self._keep(p, count)
            self._windows += 1
        if beyond:
            self._pass(top, beyond)

    def _pass(self, g: int, queries: list[int]) -> None:
        """Count the primes from the odd number 2g + 1, the highest counted
        bound, up to 2 queries[-1] + 1 (queries ascending, none below g):
        keep each odd number 2i + 1 of queries that is prime with its rank,
        and record a mark at every multiple of _MARK and at the end."""
        count = self._known(g)[1]
        end = queries[-1] + 1
        q = 0
        for lo, block in _odd_blocks(g, end - 1):
            hi = lo + len(block)
            # counts are taken at the marks and after each query, in order
            cuts = {*range(-(-(lo + 1) // _MARK) * _MARK, hi + 1, _MARK), hi}
            asked = set()
            while q < len(queries) and queries[q] < hi:
                asked.add(queries[q] + 1)
                q += 1
            at = lo
            for cut in sorted(cuts | asked):
                count += int(np.count_nonzero(block[at - lo : cut - lo]))
                at = cut
                if cut in asked and block[cut - 1 - lo]:
                    self._keep(2 * cut - 1, count)
                if cut % _MARK == 0 or cut == end:
                    self._marks.append(cut)
                    self._counts.append(count)
        self._passes += 1


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
