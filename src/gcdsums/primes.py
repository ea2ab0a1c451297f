"""Lazily extended prime table backed by a segmented sieve, and integer
factorization by Miller-Rabin and Pollard-Brent."""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, PrimeRangeError

_SEGMENT = 1 << 22
_DENSE_LIMIT = 1 << 24
_DEFAULT_INITIAL = 1 << 16
_DEFAULT_CEILING = 10 ** 9


def sieve_upto(limit: int) -> np.ndarray:
    """All primes <= limit, ascending, as int32: the table's ceiling, 10^9,
    lies below 2^31, and half-width storage halves the table's memory."""
    if limit < 2:
        return np.zeros(0, dtype=np.int32)
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, int(limit ** 0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).astype(np.int32)


class PrimeTable:
    """Ascending primes p_1 = 2, p_2 = 3, ... grown on demand."""

    def __init__(self, initial_limit: int = _DEFAULT_INITIAL, ceiling: int = _DEFAULT_CEILING):
        if not 0 < int(ceiling) < 1 << 31:
            raise DomainError(f"ceiling must lie in [1, 2^31) for int32 storage, got {ceiling}")
        self._ceiling = int(ceiling)
        self._limit = 0
        self._primes = np.zeros(0, dtype=np.int32)
        self._grow(min(int(initial_limit), self._ceiling))

    def __len__(self) -> int:
        return int(self._primes.size)

    @property
    def limit(self) -> int:
        return self._limit

    @property
    def ceiling(self) -> int:
        """Largest prime the table may ever hold."""
        return self._ceiling

    def _grow(self, limit: int) -> None:
        if limit <= self._limit:
            return
        if limit > self._ceiling:
            raise PrimeRangeError(
                f"prime table ceiling {self._ceiling} exceeded (requested {limit})"
            )
        # Geometric growth amortizes repeated small extensions.
        target = min(max(limit, 2 * self._limit, _DEFAULT_INITIAL), self._ceiling)
        if target <= _DENSE_LIMIT:
            self._primes = sieve_upto(target)
        else:
            self._append_segments(target)
        self._limit = target

    def _append_segments(self, target: int) -> None:
        """Sieve (limit, target] in segments of _SEGMENT flags and append the
        primes found, as int32 like the rest of the table."""
        base = sieve_upto(int(target ** 0.5) + 1)
        chunks = [self._primes]
        lo = self._limit + 1
        while lo <= target:
            hi = min(lo + _SEGMENT - 1, target)
            flags = np.ones(hi - lo + 1, dtype=bool)
            for p in base:
                p = int(p)
                start = max(p * p, ((lo + p - 1) // p) * p)
                if start > hi:
                    continue
                flags[start - lo :: p] = False
            if lo <= 1:
                flags[: 2 - lo] = False
            chunks.append(np.flatnonzero(flags).astype(np.int32) + lo)
            lo = hi + 1
        self._primes = np.concatenate(chunks)

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
        self._ensure_count(j)
        return int(self._primes[j - 1])

    def first(self, count: int) -> np.ndarray:
        """The first `count` primes as an int32 array (read-only view)."""
        if count < 0:
            raise DomainError("count must be >= 0")
        self._ensure_count(count)
        return self._primes[:count]

    def index_of(self, p: int) -> int:
        """1-based rank of the prime p; DomainError if p is not prime."""
        if p < 2:
            raise DomainError(f"{p} is not prime")
        if p > self._limit:
            self._grow(p)
        # an int32 needle: a Python int would make searchsorted cast the
        # whole table to int64 on every call (p <= limit < 2^31 here)
        i = int(self._primes.searchsorted(np.int32(p)))
        if i >= len(self) or int(self._primes[i]) != p:
            raise DomainError(f"{p} is not prime")
        return i + 1


DEFAULT_TABLE = PrimeTable()

_TRIAL_PRIMES = tuple(int(p) for p in sieve_upto(1000))
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
