import math
import random
import tracemalloc

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
    for n in (99_999_989, 2 * 99_999_989, 99_999_989 * 99_999_971, 3 ** 5 * 7 * 99_999_959,
              99_999_931 * 99_999_847, 2 ** 3 * 99_999_941 ** 2):
        assert to_integer(from_integer(n, table), table) == n
    # one counting pass and windows below its bound; the prefix never grew
    assert table.counting_passes == 1 and table.windows_sieved == 5
    assert table.limit == 1 << 16


_REFERENCE_LIMIT = (1 << 22) + 5000
_REFERENCE = np.array(primes_upto(_REFERENCE_LIMIT), dtype=np.int64)


def reference_range(lo, hi):
    assert hi <= _REFERENCE_LIMIT
    return _REFERENCE[(_REFERENCE >= lo) & (_REFERENCE <= hi)]


def reference_ranks(ps):
    return [int(np.searchsorted(_REFERENCE, p)) + 1 for p in ps]


# the largest prime below 10^k and pi(10^k), k = 1..8
_PI_POWERS = [(7, 4), (97, 25), (997, 168), (9973, 1229), (99_991, 9592), (999_983, 78_498),
              (9_999_991, 664_579), (99_999_989, 5_761_455)]


def test_ranks_pi_of_powers_of_ten():
    table = PrimeTable()
    primes = [p for p, _ in _PI_POWERS]
    tracemalloc.start()
    try:
        assert table.ranks(primes) == [r for _, r in _PI_POWERS]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 99 991 lies within twice the 2^16 prefix, which doubles; one counting
    # pass above it, a 1 MB block of flags at a time: no table to 10^8
    assert peak < 4 << 20
    assert (table.counting_passes, table.windows_sieved) == (1, 0)
    assert table.counted_limit == 99_999_989
    assert table.limit == 1 << 17
    # the ranked primes are kept: no second pass, and prime() reads them
    assert table.ranks(primes[::-1]) == [r for _, r in _PI_POWERS[::-1]]
    assert [table.prime(r) for _, r in _PI_POWERS] == primes
    assert (table.counting_passes, table.windows_sieved) == (1, 0)
    assert table.limit == 1 << 17


def test_ranks_within_twice_the_prefix_double_it():
    table = PrimeTable()
    assert table.ranks([131_071, 3]) == reference_ranks([131_071, 3])  # 2^17 - 1
    assert table.limit == 1 << 17 and table.counting_passes == 0
    # only what lies within twice the prefix at the call counts, once
    assert table.ranks([262_139, 1_000_003]) == reference_ranks([262_139, 1_000_003])
    assert table.limit == 1 << 18 and table.counting_passes == 1


def test_rank_of_the_largest_prime_below_the_ceiling():
    table = PrimeTable()
    assert table.ranks([999_999_937]) == [50_847_534]  # pi(10^9)
    assert table.prime(50_847_534) == 999_999_937
    assert table.index_of(999_999_937) == 50_847_534
    assert (table.counting_passes, table.limit) == (1, 1 << 16)


def _near_marks(mark, top):
    """The primes nearest either side of every mark 2 k mark + 1 up to top:
    a window then starts at its own mark or runs the whole stretch from the
    mark before."""
    out = set()
    for k in range(1, top // (2 * mark) + 1):
        at = int(np.searchsorted(_REFERENCE, 2 * k * mark + 1))
        out.update(int(p) for p in _REFERENCE[max(at - 2, 0) : at + 2])
    return sorted(p for p in out if 1 << 17 < p <= top)


@pytest.mark.parametrize("block, mark", [(777, 1 << 10), (1000, 1 << 12), (4096, 1 << 12),
                                         (1 << 20, 1 << 16)])
def test_ranks_by_passes_and_windows_match_the_sieve(monkeypatch, block, mark):
    # blocks of 777 and 1000 odd numbers put marks inside blocks and block
    # edges between marks; no prime asked for lies within twice the 2^16
    # prefix, so every rank is counted
    monkeypatch.setattr(primes_module, "_BLOCK", block)
    monkeypatch.setattr(primes_module, "_MARK", mark)
    rng = random.Random(block)
    table = PrimeTable()
    above = [int(p) for p in _REFERENCE[(_REFERENCE > 1 << 17) & (_REFERENCE < 2_000_000)]]
    first = sorted(rng.sample(above, 20))
    assert table.ranks(first) == reference_ranks(first)
    assert (table.counting_passes, table.windows_sieved) == (1, 0)
    assert table.counted_limit == first[-1]
    # below the counted bound: one window each, none longer than a mark
    inside = rng.sample([p for p in _near_marks(mark, first[-1]) if p not in first], 24)
    inside += rng.sample([p for p in above if p < first[-1] and p not in inside + first], 24)
    assert table.ranks(inside) == reference_ranks(inside)
    assert (table.counting_passes, table.windows_sieved) == (1, len(inside))
    # windows and a second pass in one call, the pass from the highest mark
    counted, windows = table.counted_limit, table.windows_sieved
    later = [int(p) for p in _REFERENCE[(_REFERENCE > 2_000_000) & (_REFERENCE < 4_000_000)]]
    mixed = rng.sample(later, 10) + rng.sample(above, 10)
    assert table.ranks(mixed) == reference_ranks(mixed)
    assert table.counting_passes == 2
    assert table.counted_limit == max(mixed)
    assert table.windows_sieved - windows == len({p for p in mixed if p < counted} - {*first, *inside})
    # composites and even numbers, inside the counted range and beyond it
    assert min(2003 * 2099, 2 * 2_100_001) > table.counted_limit
    for n in (1009 * 1013, 2 * 1_000_003, 2003 * 2099, 2 * 2_100_001):
        with pytest.raises(DomainError, match=f"{n} is not prime"):
            table.ranks([first[0], n])
    # every prime the map keeps reads back by rank
    for p in first + inside + mixed:
        assert table.prime(table.index_of(p)) == p
    assert table.limit == 1 << 16


def test_ranks_after_the_prefix_grows_past_the_marks():
    table = PrimeTable()
    low = [300_007, 400_009]
    assert table.ranks(low) == reference_ranks(low)
    # growing the prefix by rank leaves the counts valid; a later pass starts
    # where the prefix ends
    assert table.prime(100_000) == 1_299_709
    assert table.limit > 1_299_709 > table.counted_limit
    high = [3_000_017, 4_000_037]
    assert table.ranks(high + low) == reference_ranks(high + low)
    assert table.counting_passes == 2 and table.counted_limit == 4_000_037


def test_ranks_refuse_primes_above_the_ceiling_and_non_primes():
    table = PrimeTable(ceiling=10 ** 6)
    with pytest.raises(PrimeRangeError):
        table.ranks([3, 1_000_003])
    for n in (-7, 0, 1, 4, 65_535, 999_999):
        with pytest.raises(DomainError, match=f"{n} is not prime"):
            table.ranks([n])
    assert table.ranks([]) == []
    # only 999 999, odd and beyond twice the prefix, was counted: composite
    assert (table.counting_passes, table.counted_limit) == (1, 999_999)


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
