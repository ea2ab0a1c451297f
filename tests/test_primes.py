import math
import random

import numpy as np
import pytest

from hypothesis import given
import hypothesis.strategies as st

from oracles import FIRST_PRIMES, primes_upto, trial_division

import gcdsums.primes as primes_module
from gcdsums import DomainError, PrimeRangeError, PrimeTable, from_integer, to_integer
from gcdsums.primes import DEFAULT_TABLE, factorize, is_prime, sieve_range, sieve_upto


def is_prime_slow(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_sieve_matches_trial_division():
    primes = sieve_upto(1000)
    assert list(primes) == [n for n in range(1001) if is_prime_slow(n)]


def test_first_primes():
    table = PrimeTable(initial_limit=16)
    assert [table.prime(j) for j in range(1, 31)] == list(FIRST_PRIMES)


def test_index_of_inverse():
    table = PrimeTable(initial_limit=16)
    for j in (1, 5, 25, 168, 1000):
        assert table.index_of(table.prime(j)) == j


def test_index_of_rejects_composites():
    table = PrimeTable()
    for n in (1, 4, 100, 1001):
        with pytest.raises(DomainError):
            table.index_of(n)


def test_lazy_growth():
    table = PrimeTable(initial_limit=16)
    assert table.prime(100_000) == 1_299_709


def test_segmented_growth_matches_dense():
    # a table past 2^24 spans sixteen sieve blocks of 2^20 odd numbers
    table = PrimeTable(initial_limit=(1 << 24) + 5000)
    dense = sieve_upto(100_000)
    assert list(table.first(len(dense))) == list(dense)
    assert table.index_of(16_777_259) >= 1  # first prime past 2^24


def test_table_stored_as_int32_matches_int64_sieve():
    # past 2^24: sixteen sieve blocks and part of a seventeenth
    limit = (1 << 24) + 300_000
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    reference = np.flatnonzero(flags).astype(np.int64)
    table = PrimeTable(initial_limit=limit)
    primes = table.first(len(reference))
    assert sieve_upto(1000).dtype == primes.dtype == np.int32
    assert np.array_equal(primes.astype(np.int64), reference)


def test_int32_table_ranks_near_1e8():
    table = PrimeTable()
    assert table.index_of(99_999_989) == 5_761_455
    assert table.prime(5_761_455) == 99_999_989
    for n in (99_999_989, 2 * 99_999_989, 99_999_989 * 99_999_971, 3 ** 5 * 7 * 99_999_959):
        assert to_integer(from_integer(n, table), table) == n


_REFERENCE_LIMIT = (1 << 22) + 5000
_REFERENCE = np.array(primes_upto(_REFERENCE_LIMIT), dtype=np.int64)


def reference_range(lo, hi):
    assert hi <= _REFERENCE_LIMIT
    return _REFERENCE[(_REFERENCE >= lo) & (_REFERENCE <= hi)]


@pytest.mark.parametrize("lo, hi", [
    (-5, 40), (0, 1), (1, 2), (2, 2), (3, 3), (4, 4), (9, 9), (13, 13), (13, 17), (1, 13),
    (5, 12), (10, 10_000), (288, 290), (289, 289), (15_015 * 2 - 10, 15_015 * 2 + 40),
    (2, 1 << 21), (1, (1 << 21) + 1), ((1 << 21) - 5000, _REFERENCE_LIMIT),
])
def test_sieve_range_edges(lo, hi):
    # 2^21 + 1 is the first odd number of the second block from 1, and the
    # last window crosses one block edge; 13 and below are the wheel's primes
    primes = sieve_range(lo, hi)
    assert primes.dtype == np.int32
    assert np.array_equal(primes, reference_range(lo, hi))


def test_sieve_range_random_windows():
    rng = random.Random(10)
    for _ in range(200):
        lo = rng.randrange(_REFERENCE_LIMIT)
        hi = min(lo + rng.choice((10, 1000, 100_000, 3_000_000)), _REFERENCE_LIMIT)
        assert np.array_equal(sieve_range(lo, hi), reference_range(lo, hi))


@pytest.mark.parametrize("block", [144, 145, 180, 181, 64, 1])
def test_sieve_range_prime_square_on_block_edge(monkeypatch, block):
    # from 1, 17^2 = 289 is odd number 144 and 19^2 = 361 number 180: blocks
    # of 144 and 180 put them first in a block, 145 and 181 last
    monkeypatch.setattr(primes_module, "_BLOCK", block)
    for lo, hi in ((1, 5000), (2, 4001), (288, 362), (289, 361), (7, 50)):
        assert np.array_equal(sieve_range(lo, hi), reference_range(lo, hi)), (lo, hi)


def test_sieve_range_empty_when_hi_below_lo():
    for lo, hi in ((10, 9), (3, 2), (100, -100), (1 << 20, 5)):
        primes = sieve_range(lo, hi)
        assert primes.dtype == np.int32 and primes.size == 0


def test_sieve_range_refuses_primes_past_int32():
    with pytest.raises(DomainError):
        sieve_range((1 << 31) - 10, 1 << 31)


def test_stored_table_is_read_only():
    table = PrimeTable(initial_limit=100)
    for view in (table.first(5), DEFAULT_TABLE.first(5)):
        assert not view.flags.writeable
        with pytest.raises(ValueError):
            view[0] = 4
    table.prime(50_000)  # growth keeps the table read-only
    with pytest.raises(ValueError):
        table.first(5)[0] = 4
    for t in (table, DEFAULT_TABLE):
        assert t.prime(1) == 2 and t.index_of(3) == 2


def test_ceiling_must_fit_int32():
    with pytest.raises(DomainError):
        PrimeTable(ceiling=1 << 31)


def test_ceiling_enforced():
    table = PrimeTable(initial_limit=100, ceiling=10_000)
    with pytest.raises(PrimeRangeError):
        table.prime(10_000)


def test_is_prime_matches_sieve():
    limit = 200_000
    primes = set(primes_upto(limit))
    assert [n for n in range(limit + 1) if is_prime(n)] == sorted(primes)


def test_is_prime_rejects_strong_pseudoprimes():
    # the least strong pseudoprimes to every prime base up to 11, 13, 23 and 37
    for n, factors in (
        (2_152_302_898_747, (6763, 10627, 29947)),
        (3_474_749_660_383, (1303, 16927, 157543)),
        (3_825_123_056_546_413_051, (149491, 747451, 34233211)),
        (318_665_857_834_031_151_167_461, (399165290221, 798330580441)),
    ):
        assert n == math.prod(factors)
        assert not is_prime(n)
    assert is_prime(2**61 - 1) and is_prime(2**89 - 1)
    assert not is_prime((2**31 - 1) * (2**61 - 1))
    assert is_prime(_PSI_13)  # where exactness ends


# the least strong pseudoprime to the first thirteen prime bases
_PSI_13 = 1_287_836_182_261 * 2_575_672_364_521


def test_probable_prime_above_exact_bound_only_raises():
    # a composite reported prime is a "factor" above the ceiling
    with pytest.raises(PrimeRangeError):
        from_integer(_PSI_13, PrimeTable(initial_limit=100, ceiling=10_000))


@given(st.integers(1, 10**12))
def test_factorize_matches_trial_division(n):
    assert factorize(n) == trial_division(n)


def test_factorize_large_factors():
    assert factorize(1) == {}
    assert factorize(2**62) == {2: 62}
    assert factorize(3**39) == {3: 39}
    assert factorize(99_999_989**2 * 9_999_991) == {99_999_989: 2, 9_999_991: 1}
    assert factorize(1_000_000_007 * 1_000_000_009) == {1_000_000_007: 1, 1_000_000_009: 1}
    assert factorize((2**31 - 1) * (2**61 - 1)) == {2**31 - 1: 1, 2**61 - 1: 1}
    with pytest.raises(DomainError):
        factorize(0)
